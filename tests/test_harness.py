import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedback_kmeans import (
    Clustering,
    CustomizabilityFeedback,
    EngineConfig,
    ExperimentConfig,
    ExperimentMethod,
    ExperimentReport,
    ImpactRecord,
    KMeansConfig,
    Method,
    OracleProfile,
    RssFeedback,
    Sense,
    build_oracle_profile,
    demo_generator_config,
    expected_relative_change,
    generate,
    impact,
    lloyd,
    run_experiment,
    standardize,
)
from feedback_kmeans import harness
from helpers import CONTRACT_MEMBERS, ConstantPlugIn, NanPlugIn, NoisyPlugIn, make_dataset, own_members


# ---------------------------------------------------------------- impact

def test_impact_custom_example():
    assert impact(0.2, 0.3, Sense.HIGHER_IS_BETTER) == pytest.approx(0.5, abs=1e-12)


def test_impact_rss_example():
    assert impact(4.0, 3.0, Sense.LOWER_IS_BETTER) == 0.25


def test_impact_no_improvement_is_zero():
    assert impact(1.7, 1.7, Sense.LOWER_IS_BETTER) == 0.0


@pytest.mark.parametrize("sense", list(Sense))
@pytest.mark.parametrize("value", [1.7, -0.3])
def test_impact_no_improvement_is_positive_zero(sense, value):
    # report.csv writes repr(impact); a -0.0 would change the output bytes
    assert repr(impact(value, value, sense)) == "0.0"


def test_impact_negative_initial_orientation():
    # improvement stays positive when the baseline is negative
    assert impact(-0.2, -0.1, Sense.HIGHER_IS_BETTER) == pytest.approx(0.5, abs=1e-12)


def _two_branch_impact(initial, best, sense):
    # The orientation written out per sense, with no negation.
    if sense is Sense.HIGHER_IS_BETTER:
        return (best - initial) / abs(initial)
    return (initial - best) / abs(initial)


_finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(
    initial=_finite.filter(lambda v: abs(v) >= 1e-12),
    best=_finite,
    same=st.booleans(),
    sense=st.sampled_from(list(Sense)),
)
def test_impact_equals_the_two_branch_formula_bit_for_bit(initial, best, same, sense):
    # Negating a lower-is-better pair is exact, and (-best) - (-initial)
    # rounds as initial - best does, with the same sign of a zero.
    best = initial if same else best
    expected = _two_branch_impact(initial, best, sense)
    assert np.float64(impact(initial, best, sense)).tobytes() == np.float64(expected).tobytes()


def test_impact_degenerate_initial():
    with pytest.raises(ValueError, match="degenerate"):
        impact(0.0, 1.0, Sense.HIGHER_IS_BETTER)


# ---------------------------------------------------------------- fluctuation

def small_cluster_setup(noise_sigma, n=300, k=3, seed=0):
    """Clusters all below 2*sample_size so the sigma=0 oracle is exactly
    deterministic (the eval pool is consumed whole, never sampled)."""
    config = demo_generator_config(n_points=n, seed=seed)
    dataset, _ = standardize(generate(config))
    clustering = lloyd(dataset, KMeansConfig(k=k, seed=seed))
    assert clustering.sizes().max() <= 200
    profile = build_oracle_profile(config, noise_sigma=noise_sigma, rng_seed=5)
    return dataset, clustering, CustomizabilityFeedback(profile)


def test_fluctuation_zero_without_noise():
    dataset, clustering, provider = small_cluster_setup(noise_sigma=0.0)
    assert expected_relative_change(dataset, clustering, provider, calls=10, seed=1) == 0.0


def test_fluctuation_positive_with_noise():
    dataset, clustering, provider = small_cluster_setup(noise_sigma=0.05)
    assert expected_relative_change(dataset, clustering, provider, calls=10, seed=1) > 0.0


def test_fluctuation_grows_with_noise():
    # sign test across 20 seeds: the statistic under the larger noise level
    # should dominate the smaller one almost always
    wins = 0
    dataset, clustering, low = small_cluster_setup(noise_sigma=0.01)
    _, _, high = small_cluster_setup(noise_sigma=0.2)
    for seed in range(20):
        low_stat = expected_relative_change(dataset, clustering, low, calls=6, seed=seed)
        high_stat = expected_relative_change(dataset, clustering, high, calls=6, seed=seed)
        wins += high_stat >= low_stat
    assert wins >= 16


def test_fluctuation_rejects_deterministic_provider(two_blobs):
    clustering = lloyd(two_blobs, KMeansConfig(k=2, seed=0))
    with pytest.raises(ValueError, match="non-deterministic"):
        expected_relative_change(two_blobs, clustering, RssFeedback(), calls=10, seed=0)


def test_fluctuation_takes_a_plug_in_by_its_evaluation_stream(two_blobs):
    clustering = lloyd(two_blobs, KMeansConfig(k=2, seed=0))
    assert own_members(ConstantPlugIn) == own_members(NoisyPlugIn) == CONTRACT_MEMBERS
    with pytest.raises(ValueError, match="non-deterministic"):
        expected_relative_change(two_blobs, clustering, ConstantPlugIn(), calls=3, seed=0)
    stat = expected_relative_change(two_blobs, clustering, NoisyPlugIn(), calls=3, seed=0)
    assert 0.0 < stat < 1.0  # aggregates all lie in [1, 2)


def test_a_nan_evaluation_is_a_cell_failure(two_blobs, monkeypatch):
    monkeypatch.setattr(harness, "provider_from_name", lambda name, profile=None: NanPlugIn())
    config = ExperimentConfig(methods=("sm:rss",), k_values=(2, 3), repeats_per_cell=1, sm_iterations=2)
    report = run_experiment(two_blobs, config)
    assert report.records == ()
    assert [(f.method, f.k) for f in report.failures] == [("sm:rss", 2), ("sm:rss", 3)]
    assert {f.error for f in report.failures} == {"ValueError: feedback of cluster 0 is not finite: nan"}


def test_fluctuation_needs_two_calls():
    dataset, clustering, provider = small_cluster_setup(noise_sigma=0.05)
    with pytest.raises(ValueError, match="at least 2"):
        expected_relative_change(dataset, clustering, provider, calls=1, seed=0)


# ---------------------------------------------------------------- run_experiment

@pytest.fixture(scope="module")
def experiment_inputs():
    config = demo_generator_config(n_points=1200, seed=21)
    dataset, _ = standardize(generate(config))
    profile = build_oracle_profile(config)
    return dataset, profile


def test_single_cell_experiment(experiment_inputs):
    dataset, profile = experiment_inputs
    config = ExperimentConfig(
        methods=(ExperimentMethod.SME_RSS,), k_values=(3,), repeats_per_cell=1, seed=4
    )
    report = run_experiment(dataset, config, profile)
    assert len(report.records) == 1
    assert report.failures == ()
    record = report.records[0]
    assert record.method == "sme:rss"
    assert record.driving_feedback == "rss"
    assert record.final_k == 3


def test_cell_count_and_final_k(experiment_inputs):
    dataset, profile = experiment_inputs
    config = ExperimentConfig(
        methods=(ExperimentMethod.SME_RSS, ExperimentMethod.SME_CUSTOM),
        k_values=(2, 3),
        repeats_per_cell=2,
        seed=1,
    )
    report = run_experiment(dataset, config, profile)
    assert len(report.records) + len(report.failures) == 2 * 2 * 2
    for record in report.records:
        if record.method.startswith("sme"):
            assert record.final_k == record.k


def test_impact_recomputes_from_stored_fields(experiment_inputs):
    dataset, profile = experiment_inputs
    config = ExperimentConfig(
        methods=(ExperimentMethod.SM_RSS, ExperimentMethod.SM_CUSTOM),
        k_values=(3,),
        repeats_per_cell=2,
        seed=8,
    )
    report = run_experiment(dataset, config, profile)
    for record in report.records:
        sense = Sense.LOWER_IS_BETTER if record.driving_feedback == "rss" else Sense.HIGHER_IS_BETTER
        assert record.impact == impact(record.initial_eval, record.best_eval, sense)
        assert record.impact >= 0.0
        if record.driving_feedback == "custom":
            assert record.custom_impact == record.impact
            assert record.custom_initial == record.initial_eval
        else:
            assert record.custom_impact == impact(
                record.custom_initial, record.custom_reference, Sense.HIGHER_IS_BETTER
            )


def test_rss_cells_are_reproducible(experiment_inputs):
    dataset, profile = experiment_inputs
    config = ExperimentConfig(
        methods=(ExperimentMethod.SME_RSS,), k_values=(2, 4), repeats_per_cell=2, seed=13
    )
    first = run_experiment(dataset, config, profile)
    second = run_experiment(dataset, config, profile)
    assert first.records == second.records
    assert first.fluctuation_by_k == second.fluctuation_by_k


def test_threaded_experiment_matches_serial(experiment_inputs):
    dataset, profile = experiment_inputs
    config = ExperimentConfig(
        methods=(ExperimentMethod.SME_RSS, ExperimentMethod.SM_CUSTOM),
        k_values=(2, 3),
        repeats_per_cell=1,
        seed=3,
    )
    serial = run_experiment(dataset, config, profile, threads=1)
    threaded = run_experiment(dataset, config, profile, threads=4)
    assert serial.records == threaded.records


def test_failures_recorded_not_raised():
    # without a profile the custom cell fails (recorded, not raised) while
    # the rss cell completes with empty customizability columns
    rng = np.random.default_rng(0)
    dataset = make_dataset(rng.normal(size=(200, 8)))
    config = ExperimentConfig(
        methods=(ExperimentMethod.SME_RSS, ExperimentMethod.SME_CUSTOM),
        k_values=(2,),
        repeats_per_cell=1,
        seed=0,
    )
    report = run_experiment(dataset, config, oracle_profile=None)
    assert len(report.records) == 1
    assert report.records[0].method == "sme:rss"
    assert report.records[0].custom_initial is None
    assert len(report.failures) == 1
    assert report.failures[0].method == "sme:custom"
    assert "oracle profile" in report.failures[0].error


def test_unlabeled_dataset_fails_reference_evaluation_loudly():
    # with a profile present, an RSS cell must produce its customizability
    # reference; an unlabeled dataset cannot, and the cell is recorded failed
    rng = np.random.default_rng(1)
    dataset = make_dataset(rng.normal(size=(200, 8)))
    config = ExperimentConfig(
        methods=(ExperimentMethod.SME_RSS,), k_values=(2,), repeats_per_cell=1, seed=0
    )
    profile = build_oracle_profile(demo_generator_config(n_points=10, seed=0))
    report = run_experiment(dataset, config, profile)
    assert report.records == ()
    assert len(report.failures) == 1
    assert "generator-labeled" in report.failures[0].error


def test_missing_profile_blocks_custom_methods(experiment_inputs):
    dataset, _ = experiment_inputs
    config = ExperimentConfig(
        methods=(ExperimentMethod.SM_CUSTOM,), k_values=(2,), repeats_per_cell=1, seed=0
    )
    report = run_experiment(dataset, config, oracle_profile=None)
    assert report.records == ()
    assert len(report.failures) == 1
    assert "oracle profile" in report.failures[0].error


def test_summaries(experiment_inputs):
    dataset, profile = experiment_inputs
    config = ExperimentConfig(
        methods=(ExperimentMethod.SME_RSS, ExperimentMethod.SM_CUSTOM),
        k_values=(2, 3),
        repeats_per_cell=2,
        seed=30,
        fluctuation_calls=4,
    )
    report = run_experiment(dataset, config, profile)
    own = report.mean_by("impact", "method")
    assert set(own) == {"sme:rss", "sm:custom"}
    custom = report.mean_by("custom_impact", "method")
    assert set(custom) == {"sme:rss", "sm:custom"}
    per_k = report.mean_by("impact", "method", "k")
    assert set(per_k["sme:rss"]) == {2, 3}
    custom_per_k = report.mean_by("custom_impact", "method", "k")
    assert set(custom_per_k["sme:rss"]) == {2, 3}
    initial_custom = report.mean_by("custom_initial", "k")
    assert set(initial_custom) == {2, 3}
    dist = report.final_k_distribution("sm:custom")
    assert sum(dist.values()) == 4
    assert set(report.fluctuation_by_k) == {2, 3}
    assert all(v >= 0 for v in report.fluctuation_by_k.values())


def _record(method, k, impact_value, custom_impact):
    return ImpactRecord(
        method=method, k=k, seed=0, driving_feedback=method.split(":")[1],
        initial_eval=1.0, best_eval=1.0, impact=impact_value,
        custom_initial=None if custom_impact is None else 0.5,
        custom_reference=None, custom_impact=custom_impact, final_k=k, stalled=False,
    )


def test_mean_by_groups_nests_and_skips_missing_values():
    report = ExperimentReport(
        records=(
            _record("sme:rss", 2, 0.1, None),
            _record("sme:rss", 2, 0.3, 0.2),
            _record("sme:rss", 3, 0.5, None),
            _record("sm:rss", 2, 0.4, None),
        ),
        failures=(),
    )
    assert report.mean_by("impact", "method") == pytest.approx({"sme:rss": 0.3, "sm:rss": 0.4})
    assert report.mean_by("impact", "method", "k") == {
        "sme:rss": {2: pytest.approx(0.2), 3: 0.5},
        "sm:rss": {2: 0.4},
    }
    # records without a value are skipped; groups left empty are omitted
    assert report.mean_by("custom_impact", "method", "k") == {"sme:rss": {2: 0.2}}
    assert report.mean_by("custom_initial", "k") == {2: 0.5}


def test_mean_by_without_a_grouping_key_is_named():
    report = ExperimentReport(records=(_record("sme:rss", 2, 0.1, None),), failures=())
    with pytest.raises(ValueError, match="mean_by needs at least one record field to group by"):
        report.mean_by("impact")


def test_config_methods_accept_names(experiment_inputs):
    config = ExperimentConfig(methods=["sme:rss", ExperimentMethod.SM_RSS], k_values=(3,), repeats_per_cell=1)
    assert config.methods == (ExperimentMethod.SME_RSS, ExperimentMethod.SM_RSS)
    dataset, profile = experiment_inputs
    report = run_experiment(dataset, config, profile)
    assert report.failures == ()
    assert [r.method for r in report.records] == ["sme:rss", "sm:rss"]


@pytest.mark.parametrize("methods, message", [(("sme:foo",), "unknown method 'sme:foo'; expected one of sme:rss, "), ((), "methods must be non-empty")])
def test_config_bad_methods_fail_at_construction(methods, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        ExperimentConfig(methods=methods)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"k_values": (2, 3, 2)}, "k_values repeats 2"),
        ({"k_values": (4, 3, 3, 4, 5)}, "k_values repeats 4, 3"),
        ({"methods": ("sm:rss", "sme:rss", ExperimentMethod.SM_RSS)}, "methods repeats sm:rss"),
    ],
    ids=["k", "two-k", "method-by-name-and-member"],
)
def test_config_repeated_value_is_named(settings, message):
    # A repeated value ran its cells twice with equal seeds, so every mean
    # counted them twice.
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(**settings)


def test_method_names_split_into_engine_method_and_feedback():
    assert [(m.engine_method.value, m.feedback_kind) for m in ExperimentMethod] == [
        ("sme", "rss"), ("sme", "custom"), ("sm", "rss"), ("sm", "custom"),
    ]


@pytest.mark.parametrize("k_values", [(2.9, 3), (True, 3), (2, "3")])
def test_config_k_value_that_is_not_an_integer_is_named(k_values):
    with pytest.raises(ValueError, match="k_values must be an integer, got "):
        ExperimentConfig(k_values=k_values)


@pytest.mark.parametrize(
    "field, value",
    [
        ("repeats_per_cell", 1.5),
        ("sme_iterations", 2.5),
        ("sm_iterations", "3"),
        ("fluctuation_calls", True),
        ("seed", None),
    ],
)
def test_config_integer_field_that_is_not_an_integer_is_named(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be an integer, got {re.escape(repr(value))}$"):
        ExperimentConfig(**{field: value})


def test_config_k_values_accept_numpy_integers():
    config = ExperimentConfig(k_values=np.arange(2, 4), repeats_per_cell=np.int64(2), seed=np.int32(5))
    assert config.k_values == (2, 3) and all(type(k) is int for k in config.k_values)
    assert type(config.repeats_per_cell) is int and type(config.seed) is int


@pytest.mark.parametrize("seed", ["x", None, 2.5])
@pytest.mark.parametrize("method", [ExperimentMethod.SME_RSS, ExperimentMethod.SM_CUSTOM])
def test_run_method_seed_that_is_not_an_integer_is_named(planted_small, method, seed):
    dataset, profile = planted_small
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        harness.run_method(dataset, method, 2, seed, profile)


# Every entry point that takes a seed, by the name its errors give it. A
# seed once entered the random streams modulo 2**64, so seed 2**64 ran seed
# 0's run and recorded it under another seed.
SEED_ENTRY_POINTS = {
    "kmeans": ("seed", lambda ds, seed: KMeansConfig(k=2, seed=seed)),
    "generator": ("seed", lambda ds, seed: demo_generator_config(n_points=10, seed=seed)),
    "engine": ("seed", lambda ds, seed: EngineConfig(Method.SME, RssFeedback(), seed)),
    "experiment": ("seed", lambda ds, seed: ExperimentConfig(seed=seed)),
    "run_method": ("seed", lambda ds, seed: harness.run_method(ds, ExperimentMethod.SME_RSS, 2, seed, iterations=1)),
    "profile": ("rng_seed", lambda ds, seed: OracleProfile(segment_weights={0: [1.0]}, rng_seed=seed)),
    "with_rng_seed": ("rng_seed", lambda ds, seed: OracleProfile(segment_weights={0: [1.0]}).with_rng_seed(seed)),
}


@pytest.mark.parametrize("entry", SEED_ENTRY_POINTS)
@pytest.mark.parametrize(
    "seed, problem", [(-1, "must be non-negative, got -1"), (2**64, f"must be below 2**64, got {2**64}")],
    ids=["-1", "2**64"],
)
def test_every_seed_entry_point_takes_exactly_the_64_bit_seeds(two_blobs, entry, seed, problem):
    name, build = SEED_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{re.escape(name)} {re.escape(problem)}$"):
        build(two_blobs, seed)
    build(two_blobs, 2**64 - 1)


def test_config_validation():
    with pytest.raises(ValueError, match="k"):
        ExperimentConfig(k_values=())
    with pytest.raises(ValueError, match="at least 2"):
        ExperimentConfig(k_values=(1, 2))
    with pytest.raises(ValueError, match="repeats"):
        ExperimentConfig(repeats_per_cell=0)
    with pytest.raises(ValueError, match="sme_iterations and sm_iterations"):
        ExperimentConfig(sme_iterations=0)
    with pytest.raises(ValueError, match="sme_iterations and sm_iterations"):
        ExperimentConfig(sm_iterations=0)
    with pytest.raises(ValueError, match="fluctuation_calls must be at least 2"):
        ExperimentConfig(fluctuation_calls=1)
