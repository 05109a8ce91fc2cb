import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from feedback_kmeans import (
    Action,
    Clustering,
    CustomizabilityFeedback,
    EngineConfig,
    FeedbackReport,
    Method,
    OracleProfile,
    RssFeedback,
    RunTrace,
    Sense,
    TraceStep,
    best_clustering,
    run_engine,
    validate_clustering,
    write_trace,
)
from feedback_kmeans.engines import DEFAULT_ITERATIONS, read_trace_records, trace_records
from helpers import (
    CONTRACT_MEMBERS,
    NanPlugIn,
    NoisyPlugIn,
    assert_same_run,
    make_dataset,
    own_members,
    reference_run,
)


class XVarianceFeedback:
    """Toy pluggable provider: per-cluster variance of the first coordinate,
    lower is better. Prizes clusters whose points share similar horizontal
    values regardless of the other features."""

    sense = Sense.LOWER_IS_BETTER

    def evaluate(self, dataset, clustering, rng=None):
        values = []
        sizes = []
        for cid in range(clustering.k):
            xs = dataset.points[clustering.members(cid), 0]
            values.append(float(np.var(xs)))
            sizes.append(len(xs))
        aggregate = float(np.dot(values, np.asarray(sizes) / sum(sizes)))
        return FeedbackReport(per_cluster=tuple(values), aggregate=aggregate, sense=self.sense)

    def evaluation_rng(self, step):
        return None


def rss_config(method, **kwargs):
    return EngineConfig(method=method, feedback=RssFeedback(), seed=kwargs.pop("seed", 7), **kwargs)


# ---------------------------------------------------------------- SME

def test_sme_counting_contract(two_blobs):
    trace = run_engine(two_blobs, 2, rss_config(Method.SME))
    assert len(trace.steps) == 7  # init + 6 iterations
    assert sum(len(step.actions) for step in trace.steps[1:]) == 12  # one split + one merge per iteration
    assert trace.steps[0].actions == (Action.init(),)
    for step in trace.steps[1:]:
        assert [a.kind for a in step.actions] == ["split", "merge"]


def test_sme_preserves_k(two_blobs):
    for k in (2, 3, 4):
        trace = run_engine(two_blobs, k, rss_config(Method.SME, seed=k))
        assert {step.k for step in trace.steps} == {k}
        for step in trace.steps:
            assert step.clustering.k == k
            assert validate_clustering(two_blobs, step.clustering) == []


def test_sme_stalls_on_all_singletons():
    ds = make_dataset([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
    trace = run_engine(ds, 3, rss_config(Method.SME))
    assert trace.stalled
    assert len(trace.steps) == 1  # nothing splittable after init


def test_sme_best_no_worse_than_initial(two_blobs):
    for seed in range(4):
        trace = run_engine(two_blobs, 2, rss_config(Method.SME, seed=seed))
        assert trace.best_evaluation <= trace.steps[0].feedback.aggregate


def test_sme_splits_target_the_worst_cluster(two_blobs):
    trace = run_engine(two_blobs, 3, rss_config(Method.SME))
    for prev, step in zip(trace.steps, trace.steps[1:]):
        split_action = step.actions[0]
        values = prev.feedback.per_cluster
        worst_value = max(values)  # RSS: higher is worse
        # the split target is the worst cluster unless it was unsplittable
        assert values[split_action.target] == worst_value or split_action.target != int(
            np.argmax(values)
        )


def test_sme_deterministic_traces(two_blobs):
    a = run_engine(two_blobs, 3, rss_config(Method.SME, seed=11))
    b = run_engine(two_blobs, 3, rss_config(Method.SME, seed=11))
    assert trace_records(a) == trace_records(b)
    for sa, sb in zip(a.steps, b.steps):
        np.testing.assert_array_equal(sa.clustering.assignment, sb.clustering.assignment)
        np.testing.assert_array_equal(sa.clustering.centroids, sb.clustering.centroids)


def test_sme_point_multiset_preserved(two_blobs):
    trace = run_engine(two_blobs, 3, rss_config(Method.SME))
    for step in trace.steps:
        assert step.clustering.sizes().sum() == two_blobs.n_points


def test_sme_target_evaluation_stops_early(two_blobs):
    full = run_engine(two_blobs, 2, rss_config(Method.SME, seed=3))
    lenient_target = full.steps[0].feedback.aggregate * 2
    trace = run_engine(
        two_blobs, 2, rss_config(Method.SME, seed=3, target_evaluation=lenient_target)
    )
    assert len(trace.steps) == 1  # init already meets the target


# ---------------------------------------------------------------- S/M

def test_sm_counting_contract(planted_small):
    dataset, _ = planted_small
    trace = run_engine(dataset, 3, rss_config(Method.SM))
    assert len(trace.steps) == 13  # init + 12 single-action iterations
    assert sum(len(step.actions) for step in trace.steps[1:]) == 12
    for step in trace.steps[1:]:
        assert len(step.actions) == 1
        assert step.actions[0].kind in ("split", "merge")


def test_sm_stalls_when_no_split_is_legal():
    # k=2 over two points: both clusters are singletons, merging would drop
    # below two clusters and neither can be split
    ds = make_dataset([[0.0, 0.0], [5.0, 0.0]])
    trace = run_engine(ds, 2, rss_config(Method.SM))
    assert trace.stalled
    assert len(trace.steps) == 1


def test_sm_k_can_drift(planted_small):
    dataset, _ = planted_small
    trace = run_engine(dataset, 3, rss_config(Method.SM, seed=42))
    ks = [step.k for step in trace.steps]
    assert len(set(ks)) > 1
    splits = sum(1 for s in trace.steps for a in s.actions if a.kind == "split")
    merges = sum(1 for s in trace.steps for a in s.actions if a.kind == "merge")
    assert splits != merges
    assert trace.steps[-1].k == 3 + splits - merges != 3


def test_sm_k_bounds(planted_small):
    dataset, _ = planted_small
    for seed in range(3):
        config = rss_config(Method.SM, seed=seed)
        trace = run_engine(dataset, 2, config)
        for step in trace.steps:
            assert 2 <= step.k <= 2 + 12
            assert validate_clustering(dataset, step.clustering) == []


def test_sm_deterministic(planted_small):
    dataset, _ = planted_small
    a = run_engine(dataset, 4, rss_config(Method.SM, seed=9))
    b = run_engine(dataset, 4, rss_config(Method.SM, seed=9))
    assert trace_records(a) == trace_records(b)


def test_sm_custom_reproducible_with_fixed_oracle_stream(planted_small):
    dataset, profile = planted_small
    def run_once():
        provider = CustomizabilityFeedback(profile.with_rng_seed(77))
        config = EngineConfig(method=Method.SM, feedback=provider, seed=5)
        return trace_records(run_engine(dataset, 3, config))
    assert run_once() == run_once()


def test_sm_evaluates_after_every_action(planted_small):
    dataset, _ = planted_small
    trace = run_engine(dataset, 3, rss_config(Method.SM))
    # one evaluation per step, init included
    assert len(trace.evaluations()) == len(trace.steps) == 13


def test_sm_target_evaluation_stops_mid_run(planted_small):
    dataset, _ = planted_small
    full = run_engine(dataset, 3, rss_config(Method.SM, seed=2))
    evaluations = full.evaluations()
    # pick a target only reachable after a few actions
    target = sorted(evaluations)[len(evaluations) // 2]
    if target == evaluations[0]:
        target = min(evaluations)
    trace = run_engine(dataset, 3, rss_config(Method.SM, seed=2, target_evaluation=target))
    assert len(trace.steps) < len(full.steps)
    assert trace.evaluations()[-1] <= target


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=2, max_value=80),
    d=st.integers(min_value=1, max_value=4),
    grid=st.booleans(),
    k_draw=st.integers(min_value=0, max_value=4),
    method=st.sampled_from(list(Method)),
)
def test_rss_runs_complete_or_stall_with_valid_clusterings(seed, n, d, grid, k_draw, method):
    rng = np.random.default_rng(seed)
    if grid:  # duplicate-heavy: tiny clusters and unsplittable duplicates
        points = rng.integers(0, 3, size=(n, d)).astype(float)
    else:
        points = rng.normal(size=(n, d))
    ds = make_dataset(points)
    distinct = len(np.unique(points, axis=0))
    assume(distinct >= 2)
    k = 2 + k_draw % (min(6, distinct) - 1)
    config = rss_config(method, seed=seed)
    trace = run_engine(ds, k, config)
    assert trace.stalled or len(trace.steps) == config.iterations + 1
    for step in trace.steps:
        assert validate_clustering(ds, step.clustering) == []
        if method is Method.SME:
            assert step.k == step.clustering.k == k
    assert trace_records(run_engine(ds, k, config)) == trace_records(trace)


def test_engine_rejects_k_below_minimum(two_blobs):
    with pytest.raises(ValueError, match="minimum cluster count"):
        run_engine(two_blobs, 1, rss_config(Method.SME))


@pytest.mark.parametrize("iterations", [2.5, True, "4"])
def test_engine_config_iterations_that_are_not_an_integer_are_named(iterations):
    with pytest.raises(ValueError, match=r"^iterations must be an integer, got "):
        rss_config(Method.SME, iterations=iterations)


@pytest.mark.parametrize("seed", ["7", 7.0, True, None])
def test_engine_config_seed_that_is_not_an_integer_is_named(seed):
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        EngineConfig(Method.SME, RssFeedback(), seed)
    assert type(EngineConfig(Method.SME, RssFeedback(), np.int64(7)).seed) is int


def test_engine_config_iterations_default_and_validation():
    assert rss_config(Method.SM).iterations == DEFAULT_ITERATIONS[Method.SM]
    assert type(rss_config(Method.SME, iterations=np.int64(3)).iterations) is int
    with pytest.raises(ValueError, match="iterations must be at least 1"):
        rss_config(Method.SME, iterations=0)


@pytest.mark.parametrize("method", list(Method))
def test_engine_sorts_the_rows_once(monkeypatch, method):
    # A row sort is an np.unique(..., axis=0) call; the dataset caches its row
    # ids, and every bisect indexes them at the target's members.
    sorts = []
    unique = np.unique

    def counting_unique(*args, **kwargs):
        if kwargs.get("axis") == 0:
            sorts.append(args[0].shape)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counting_unique)
    rng = np.random.default_rng(17)
    points = np.vstack([rng.normal(c, 0.6, size=(50, 3)) for c in (0.0, 4.0, 8.0)])
    dataset = make_dataset(np.vstack([points, points[:20]]))  # with duplicate rows
    trace = run_engine(dataset, 3, rss_config(method))
    assert sum(len(step.actions) for step in trace.steps[1:]) > 0
    assert sorts == [dataset.points.shape]


def test_random_datasets_yield_valid_traces():
    # robustness sweep: mixed continuous/duplicate-heavy data, both engines
    rng = np.random.default_rng(99)
    for trial in range(12):
        n = int(rng.integers(10, 120))
        points = rng.normal(size=(n, 3))
        if trial % 3 == 0:
            points = np.round(points)  # duplicate-heavy
        ds = make_dataset(points)
        k = int(min(rng.integers(2, 6), len(np.unique(ds.points, axis=0))))
        if k < 2:
            continue
        sme_trace = run_engine(ds, k, rss_config(Method.SME, seed=trial, iterations=3))
        sm_trace = run_engine(ds, k, rss_config(Method.SM, seed=trial, iterations=6))
        for trace in (sme_trace, sm_trace):
            for step in trace.steps:
                assert validate_clustering(ds, step.clustering) == []
            assert trace.best_evaluation == min(trace.evaluations())


def test_best_is_optimum_over_all_evaluations(two_blobs, planted_small):
    trace = run_engine(two_blobs, 3, rss_config(Method.SME, seed=8))
    assert trace.best_evaluation == min(trace.evaluations())
    dataset, profile = planted_small
    provider = CustomizabilityFeedback(profile.with_rng_seed(4))
    custom_trace = run_engine(
        dataset, 3, EngineConfig(method=Method.SM, feedback=provider, seed=8)
    )
    assert custom_trace.best_evaluation == max(custom_trace.evaluations())


# ---------------------------------------------------------------- whole-run reference

def _run_or_message(run):
    """The run's trace, or the message of the ValueError it raised."""
    try:
        return run()
    except ValueError as error:
        return str(error)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**31),
    n=st.integers(min_value=6, max_value=80),
    d=st.integers(min_value=1, max_value=4),
    grid=st.booleans(),
    k=st.integers(min_value=2, max_value=6),
    method=st.sampled_from(list(Method)),
    custom=st.booleans(),
)
# Ties between centroids at the split's reassignment, which the carried
# rows must break to the lowest id as the full pass does.
@example(seed=0, n=15, d=2, grid=True, k=2, method=Method.SME, custom=False)
def test_runs_equal_the_reference_run(seed, n, d, grid, k, method, custom):
    # Integer-grid points bring ties and duplicate rows. The reference
    # recomputes every stage, so the run must equal it byte for byte, or
    # raise the same message.
    rng = np.random.default_rng(seed)
    points = rng.integers(0, 3, size=(n, d)).astype(float) if grid else rng.normal(size=(n, d))
    dataset = make_dataset(points, bookings=rng.integers(0, 40, n), hidden_segment=rng.integers(0, 3, n))
    if custom:
        weights = {0: [1.0, 0.0], 1: [0.0, 1.0], 2: [0.6, 0.6]}
        provider = CustomizabilityFeedback(OracleProfile(segment_weights=weights, sample_size=3, rng_seed=seed))
    else:
        provider = RssFeedback()
    config = EngineConfig(method=method, feedback=provider, seed=seed)
    actual = _run_or_message(lambda: run_engine(dataset, k, config))
    expected = _run_or_message(lambda: reference_run(dataset, k, method, provider, seed, config.iterations))
    if isinstance(actual, str) or isinstance(expected, str):
        assert actual == expected
    else:
        assert_same_run(actual, expected)


@pytest.mark.parametrize("method", list(Method))
@pytest.mark.parametrize("custom", [False, True], ids=["rss", "custom"])
def test_planted_runs_at_k7_equal_the_reference_run(planted_small, method, custom):
    # 2k points: Lloyd's bounds leave rows stale, at k=7 and in each
    # split's 2-means, and the carried rows outlive many steps.
    dataset, profile = planted_small
    provider = CustomizabilityFeedback(profile) if custom else RssFeedback()
    config = EngineConfig(method=method, feedback=provider, seed=3)
    expected = reference_run(dataset, 7, method, provider, 3, config.iterations)
    assert_same_run(run_engine(dataset, 7, config), expected)


# ---------------------------------------------------------------- toy feedback scenario

def test_split_then_merges_improve_horizontal_homogeneity():
    # two x-bands, each spread across two far-apart y groups: geometric
    # clusters form along y and mix the bands; the horizontal-similarity
    # feedback drives actions that separate them
    points = []
    for y_base in (0.0, 30.0):
        for dy in range(3):
            points.append([0.0, y_base + dy])
            points.append([10.0, y_base + dy + 0.5])
    ds = make_dataset(points)
    provider = XVarianceFeedback()
    config = EngineConfig(method=Method.SM, feedback=provider, seed=0, iterations=6)
    trace = run_engine(ds, 2, config)
    initial = trace.steps[0].feedback.aggregate
    assert initial == 25.0  # both seeded initial clusters mix the two bands
    assert trace.best_evaluation == 0.0
    best, _ = best_clustering(trace)
    for cid in range(best.k):
        xs = ds.points[best.members(cid), 0]
        assert np.var(xs) <= 1e-12  # each cluster is x-homogeneous


@pytest.mark.parametrize("plug_in", [NoisyPlugIn, XVarianceFeedback])
@pytest.mark.parametrize("method", list(Method))
def test_three_member_plug_in_runs_through_the_engine(two_blobs, plug_in, method):
    assert own_members(plug_in) == CONTRACT_MEMBERS
    provider = plug_in()
    config = EngineConfig(method=method, feedback=provider, seed=3, iterations=4)
    trace = run_engine(two_blobs, 3, config)
    assert len(trace.steps) == 5
    for index, step in enumerate(trace.steps):
        assert validate_clustering(two_blobs, step.clustering) == []
        # each step is evaluated under the provider's own stream for it
        rng = provider.evaluation_rng(index)
        assert step.feedback == provider.evaluate(two_blobs, step.clustering, rng)


@pytest.mark.parametrize("method", list(Method))
def test_a_nan_evaluation_stops_the_run_naming_its_cluster(two_blobs, method):
    config = EngineConfig(method=method, feedback=NanPlugIn(), seed=3, iterations=4)
    with pytest.raises(ValueError, match=r"^feedback of cluster 0 is not finite: nan$"):
        run_engine(two_blobs, 3, config)


# ---------------------------------------------------------------- best_clustering

def _manual_trace(aggregates, sense):
    clustering = Clustering(assignment=[0, 1], centroids=[[0.0], [1.0]])
    steps = [
        TraceStep(
            actions=(Action.init(),) if idx == 0 else (Action.split(0), Action.merge(0, 1)),
            clustering=clustering,
            feedback=FeedbackReport(per_cluster=(value, value), aggregate=value, sense=sense),
        )
        for idx, value in enumerate(aggregates)
    ]
    return RunTrace(steps=tuple(steps), seed=0)


def test_best_clustering_single_step():
    trace = _manual_trace([4.0], Sense.LOWER_IS_BETTER)
    clustering, evaluation = best_clustering(trace)
    assert evaluation == 4.0
    assert trace.best_step_index == 0


def test_best_clustering_lower_is_better():
    trace = _manual_trace([5.0, 3.0, 4.0], Sense.LOWER_IS_BETTER)
    assert trace.best_step_index == 1
    assert best_clustering(trace)[1] == 3.0


def test_best_clustering_strict_improvement_keeps_first_optimum():
    trace = _manual_trace([0.1, 0.5, 0.5], Sense.HIGHER_IS_BETTER)
    assert trace.best_step_index == 1
    assert best_clustering(trace)[1] == 0.5


# ---------------------------------------------------------------- trace export

def test_trace_jsonl_round_trip(tmp_path, two_blobs):
    trace = run_engine(two_blobs, 3, rss_config(Method.SME, seed=6))
    path = tmp_path / "trace.jsonl"
    write_trace(trace, path)
    records = read_trace_records(path)
    assert records == trace_records(trace)
    assert [r["step"] for r in records] == list(range(len(trace.steps)))
    for record in records:
        assert set(record) == {"step", "action", "k", "per_cluster_feedback", "aggregate", "is_best"}
        assert len(record["per_cluster_feedback"]) == record["k"]
    assert records[0]["action"] == "init"
    assert records[0]["is_best"] is True
