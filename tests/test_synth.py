import csv
import json
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feedback_kmeans import (
    FEATURE_NAMES,
    Dataset,
    GeneratorConfig,
    KMeansConfig,
    SegmentSpec,
    build_oracle_profile,
    demo_generator_config,
    generate,
    lloyd,
    standardize,
)
from feedback_kmeans import synth
from feedback_kmeans.feedback import load_oracle_profile, save_oracle_profile
from feedback_kmeans.ingest import write_csv
from feedback_kmeans.synth import FeatureScaling, load_generator_config


def single_segment_config(n=50, stddevs=(0.0,) * 8, seed=1):
    segment = SegmentSpec(
        id=0,
        mixture_weight=1.0,
        feature_means=(1000.0, 20.0, 7.0, 2.0, 1.0, 1.0, 3.0, 5.0),
        feature_stddevs=stddevs,
        oracle_weights=(1.0, 0.0, 0.0, 0.0),
        booking_lognormal=(2.0, 0.5),
    )
    return GeneratorConfig(n_points=n, segments=(segment,), seed=seed)


def two_disjoint_segments(n=1000, seed=5):
    a = SegmentSpec(
        id=0,
        mixture_weight=0.5,
        feature_means=(100.0, 5.0, 2.0, 1.0, 0.0, 0.0, 1.0, 3.0),
        feature_stddevs=(10.0, 1.0, 0.5, 0.2, 0.1, 0.1, 0.5, 0.5),
        oracle_weights=(1.0, 0.0),
        booking_lognormal=(2.0, 0.5),
    )
    b = SegmentSpec(
        id=1,
        mixture_weight=0.5,
        feature_means=(5000.0, 90.0, 21.0, 4.0, 2.0, 2.0, 5.0, 6.0),
        feature_stddevs=(200.0, 5.0, 2.0, 0.5, 0.5, 0.1, 0.5, 0.2),
        oracle_weights=(0.0, 2.0),
        booking_lognormal=(3.0, 0.5),
    )
    return GeneratorConfig(n_points=n, segments=(a, b), seed=seed)


def test_zero_stddev_collapses_to_quantized_mean():
    ds = generate(single_segment_config())
    first = ds.points[0]
    assert (ds.points == first).all()
    np.testing.assert_array_equal(first, [1000.0, 20.0, 7.0, 2.0, 1.0, 1.0, 3.0, 5.0])


def test_disjoint_segments_recovered_by_kmeans():
    config = two_disjoint_segments()
    ds, _ = standardize(generate(config))
    clustering = lloyd(ds, KMeansConfig(k=2, seed=0))
    for cid in range(2):
        segs = ds.hidden_segment[clustering.members(cid)]
        _, counts = np.unique(segs, return_counts=True)
        assert counts.max() / counts.sum() >= 0.99


def test_mixture_counts_within_three_sigma():
    config = demo_generator_config(n_points=10_000, seed=2)
    weights = {s.id: s.mixture_weight for s in config.segments}
    ds = generate(config)
    n = ds.n_points
    for seg, p in weights.items():
        count = int((ds.hidden_segment == seg).sum())
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(count - n * p) <= 3 * sigma


def test_quantized_fields_in_legal_ranges():
    ds = generate(demo_generator_config(n_points=5000, seed=3))
    names = list(FEATURE_NAMES)
    passengers = ds.points[:, names.index("n_passengers")]
    children = ds.points[:, names.index("n_children")]
    geography = ds.points[:, names.index("geography")]
    assert (passengers >= 1).all() and (passengers == np.rint(passengers)).all()
    assert (children >= 0).all() and (children == np.rint(children)).all()
    assert set(np.unique(geography)) <= {0.0, 1.0, 2.0}
    for col in ("dep_dow", "ret_dow"):
        dow = ds.points[:, names.index(col)]
        assert dow.min() >= 0 and dow.max() <= 6
        assert (dow == np.rint(dow)).all()
    assert (ds.bookings >= 0).all()
    assert ds.origins is not None and ds.destinations is not None


def test_quantized_fields_hold_no_negative_zero(tmp_path):
    # Draws in [-0.5, 0) round to -0.0: 13,795 such cells at this size,
    # each written to the CSV as "-0.0", before they were made +0.0.
    ds = generate(demo_generator_config(n_points=20_000, seed=7))
    names = list(FEATURE_NAMES)
    for col in ("n_passengers", "n_children", "geography", "dep_dow", "ret_dow"):
        values = ds.points[:, names.index(col)]
        assert not np.signbit(values[values == 0.0]).any(), col
    path = tmp_path / "dataset.csv"
    write_csv(ds, path)
    with open(path, newline="") as handle:
        assert not any("-0.0" in row for row in csv.reader(handle))


def test_generation_deterministic_per_seed():
    a = generate(demo_generator_config(n_points=500, seed=9))
    b = generate(demo_generator_config(n_points=500, seed=9))
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.bookings, b.bookings)
    np.testing.assert_array_equal(a.hidden_segment, b.hidden_segment)
    assert a.origins == b.origins
    c = generate(demo_generator_config(n_points=500, seed=10))
    assert not np.array_equal(a.points, c.points)


def test_generate_scales_the_draw_as_the_broadcast_formula():
    # The in-place scaling gives the bits of standard_normal * stds + means,
    # with the mixture's draws in the same order; segment 2 has a zero
    # stddev, so its distance is its mean.
    a, b = two_disjoint_segments().segments
    c = SegmentSpec(id=7, mixture_weight=0.2, feature_means=(1500.0, 40.0, 9.0, 3.0, 1.0, 1.0, 2.0, 2.0),
                    feature_stddevs=(0.0, 7.0, 3.0, 0.8, 0.6, 0.5, 1.5, 1.5),
                    oracle_weights=(0.5, 0.5), booking_lognormal=(1.0, 0.5))
    segments = (replace(a, mixture_weight=0.5), replace(b, mixture_weight=0.3), c)
    config = GeneratorConfig(n_points=3000, segments=segments, seed=21)
    rng = np.random.default_rng(config.seed)
    weights = np.array([s.mixture_weight for s in segments])
    choice = rng.choice(3, size=config.n_points, p=weights / weights.sum())
    means = np.array([s.feature_means for s in segments])
    stds = np.array([s.feature_stddevs for s in segments])
    expected = rng.standard_normal((config.n_points, len(FEATURE_NAMES))) * stds[choice] + means[choice]
    expected[:, 3] = np.maximum(1.0, np.rint(expected[:, 3]))
    expected[:, 4] = np.maximum(0.0, np.rint(expected[:, 4]))
    for col, top in ((5, 2.0), (6, 6.0), (7, 6.0)):
        expected[:, col] = np.clip(np.rint(expected[:, col]), 0.0, top)
    expected[:, 4:] += 0.0  # a count rounded to -0.0 is stored as +0.0
    points = generate(config).points
    assert points.tobytes() == expected.tobytes()
    assert (points[choice == 2, 0] == 1500.0).all()


def test_generate_and_standardize_hand_their_arrays_to_the_dataset(monkeypatch):
    # Both mark their fresh arrays read-only, so the Dataset shares them:
    # generate's draws, and the scaled points standardize rebuilds with.
    handed, scaled = [], []
    apply = FeatureScaling.apply

    def recording_dataset(**fields):
        handed.append(fields)
        return Dataset(**fields)

    def recording_apply(self, points):
        scaled.append(apply(self, points))
        return scaled[-1]

    monkeypatch.setattr(synth, "Dataset", recording_dataset)
    monkeypatch.setattr(FeatureScaling, "apply", recording_apply)
    generated = generate(demo_generator_config(n_points=500, seed=3))
    standardized, _ = standardize(generated)
    (fields,) = handed
    for name in ("points", "bookings", "hidden_segment"):
        assert np.shares_memory(getattr(generated, name), fields[name])
    (points,) = scaled
    assert np.shares_memory(standardized.points, points)
    assert standardized.bookings is generated.bookings
    assert standardized.hidden_segment is generated.hidden_segment
    assert not generated.points.flags.writeable and not standardized.points.flags.writeable


def _traced_peak(call) -> int:
    """call's tracemalloc peak above what was allocated before it."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - before


def test_generating_20k_points_peaks_below_5_mb():
    # The points array holds 1.3 MB; the draw is scaled in place and the
    # Dataset shares it, so no second (n, 8) array outlives one operation.
    config = demo_generator_config(n_points=20_000, seed=13)
    assert _traced_peak(lambda: generate(config)) < 5e6


def test_standardizing_20k_points_peaks_below_2_5_mb_above_its_input():
    # One new (n, 8) array of 1.3 MB, scaled in place.
    dataset = generate(demo_generator_config(n_points=20_000, seed=13))
    assert _traced_peak(lambda: standardize(dataset)) < 2.5e6


def test_every_segment_covered_by_profile():
    config = demo_generator_config(n_points=2000, seed=4)
    ds = generate(config)
    profile = build_oracle_profile(config)
    assert set(np.unique(ds.hidden_segment)) <= set(profile.segment_weights)


def test_config_validation():
    good = single_segment_config()
    with pytest.raises(ValueError, match="sum to 1"):
        GeneratorConfig(
            n_points=10,
            segments=(
                SegmentSpec(
                    id=0,
                    mixture_weight=0.5,
                    feature_means=good.segments[0].feature_means,
                    feature_stddevs=good.segments[0].feature_stddevs,
                    oracle_weights=(1.0,),
                    booking_lognormal=(1.0, 1.0),
                ),
            ),
            seed=0,
        )
    with pytest.raises(ValueError, match="non-negative"):
        SegmentSpec(
            id=0,
            mixture_weight=1.0,
            feature_means=good.segments[0].feature_means,
            feature_stddevs=(-1.0,) * 8,
            oracle_weights=(1.0,),
            booking_lognormal=(1.0, 1.0),
        )
    with pytest.raises(ValueError, match="8"):
        SegmentSpec(
            id=0,
            mixture_weight=1.0,
            feature_means=(0.0, 1.0),
            feature_stddevs=(1.0, 1.0),
            oracle_weights=(1.0,),
            booking_lognormal=(1.0, 1.0),
        )


def test_oracle_profile_norm_bound_enforced():
    config = single_segment_config()
    segment = config.segments[0]
    oversized = SegmentSpec(
        id=0,
        mixture_weight=1.0,
        feature_means=segment.feature_means,
        feature_stddevs=segment.feature_stddevs,
        oracle_weights=(4.0, 0.0, 0.0, 0.0),  # ||w||^2 = 16 > C = 10
        booking_lognormal=(1.0, 1.0),
    )
    bad = GeneratorConfig(n_points=10, segments=(oversized,), seed=0)
    with pytest.raises(ValueError, match="exceeds"):
        build_oracle_profile(bad)


# ---------------------------------------------------------------- standardize

def test_standardize_zero_mean_unit_std():
    rng = np.random.default_rng(6)
    ds = generate(demo_generator_config(n_points=3000, seed=6))
    standardized, scaling = standardize(ds)
    means = standardized.points.mean(axis=0)
    stds = standardized.points.std(axis=0)
    varying = scaling.stddev > 0
    np.testing.assert_allclose(means[varying], 0.0, atol=1e-9)
    np.testing.assert_allclose(stds[varying], 1.0, atol=1e-9)


def test_standardize_idempotent_on_standardized_data():
    ds = generate(demo_generator_config(n_points=1000, seed=7))
    once, _ = standardize(ds)
    twice, scaling = standardize(once)
    np.testing.assert_allclose(twice.points, once.points, atol=1e-9)
    np.testing.assert_allclose(scaling.mean, 0.0, atol=1e-9)


def test_standardize_constant_feature_passes_through():
    ds = generate(single_segment_config(n=30))
    standardized, scaling = standardize(ds)
    np.testing.assert_array_equal(standardized.points, ds.points)
    assert (scaling.stddev == 0).all()


def test_scaling_equals_the_where_formula_bit_for_bit():
    points = generate(demo_generator_config(n_points=2000, seed=12)).points.copy()
    points[:, 4] = 3.0  # a constant column passes through
    scaling = FeatureScaling(mean=points.mean(axis=0), stddev=points.std(axis=0))
    assert scaling.stddev[4] == 0
    scale = np.where(scaling.stddev > 0, scaling.stddev, 1.0)
    expected = np.where(scaling.stddev > 0, (points - scaling.mean) / scale, points)
    assert scaling.apply(points).tobytes() == expected.tobytes()


def test_standardize_round_trips():
    # The varying columns come out z-scored, a constant one as it went in,
    # and the side data is shared, not copied.
    ds = generate(demo_generator_config(n_points=800, seed=8))
    points = ds.points.copy()
    points[:, 4] = 3.0
    ds = replace(ds, points=points)
    standardized, scaling = standardize(ds)
    varying = scaling.stddev > 0
    assert varying.tolist() == [True] * 4 + [False] + [True] * 3
    np.testing.assert_allclose(standardized.points[:, varying].mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(standardized.points[:, varying].std(axis=0), 1.0, rtol=1e-9)
    assert standardized.points[:, 4].tobytes() == ds.points[:, 4].tobytes()
    assert standardized.bookings is ds.bookings
    assert standardized.hidden_segment is ds.hidden_segment


# ---------------------------------------------------------------- config file

def write_generator_config(path, oracle):
    segment = single_segment_config().segments[0]
    payload = {
        "n_points": 50,
        "seed": 1,
        "segments": [
            {
                "id": segment.id,
                "mixture_weight": segment.mixture_weight,
                "feature_means": list(segment.feature_means),
                "feature_stddevs": list(segment.feature_stddevs),
                "oracle_weights": list(segment.oracle_weights),
                "booking_lognormal": list(segment.booking_lognormal),
            }
        ],
        "oracle": oracle,
    }
    path.write_text(json.dumps(payload))
    return path


def test_config_oracle_block_sets_the_profile_by_its_file_keys(tmp_path):
    path = write_generator_config(tmp_path / "config.json", {"C": 20, "noise_sigma": 0.1})
    _, profile = load_generator_config(path)
    assert (profile.score_offset, profile.noise_sigma, profile.sample_size) == (20.0, 0.1, 100)


@pytest.mark.parametrize("key", ["C"])
@pytest.mark.parametrize("value", ["10", None])
def test_config_score_offset_error_names_the_key_written(tmp_path, key, value):
    path = write_generator_config(tmp_path / "config.json", {key: value})
    message = f"{key} must be a finite int or float, got {value!r}"
    with pytest.raises(ValueError, match=rf"^generator config {re.escape(str(path))}: {re.escape(message)}$"):
        load_generator_config(path)


def test_config_oracle_block_takes_no_field_name_for_a_key(tmp_path):
    # The block's keys are the profile file's: C, not the field score_offset.
    path = write_generator_config(tmp_path / "config.json", {"score_offset": 5})
    message = (
        f"generator config {path}: unknown oracle key(s) score_offset "
        "(accepted: C, noise_sigma, sample_size, eval_pool_fraction)"
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_generator_config(path)


def config_payload(tmp_path):
    path = write_generator_config(tmp_path / "config.json", {"noise_sigma": 0.1})
    return path, json.loads(path.read_text())


@pytest.mark.parametrize("where, key", [("top-level", "n_point"), ("segment 0", "weights"), ("oracle", "noise")])
def test_config_with_an_unknown_key_is_rejected_by_name(tmp_path, where, key):
    path, payload = config_payload(tmp_path)
    block = {"top-level": payload, "segment 0": payload["segments"][0], "oracle": payload["oracle"]}[where]
    block[key] = 0.3
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=rf"unknown {where} key\(s\) {key} \(accepted: "):
        load_generator_config(path)


@pytest.mark.parametrize("where", ["top-level", "segment 0", "oracle"])
def test_config_blocks_must_be_objects(tmp_path, where):
    path, payload = config_payload(tmp_path)
    if where == "top-level":
        payload = [payload]
    elif where == "segment 0":
        payload["segments"] = [[1, 2]]
    else:
        payload["oracle"] = [0.3]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"{where} must be a JSON object"):
        load_generator_config(path)


@pytest.mark.parametrize(
    "where, key, value",
    [
        ("top-level", "n_points", 2.9),
        ("top-level", "n_points", "abc"),
        ("top-level", "seed", True),
        ("top-level", "seed", 1.0),
        ("segment 0", "id", 0.5),
        ("segment 0", "id", False),
    ],
)
def test_config_integer_that_is_not_an_integer_is_named(tmp_path, where, key, value):
    path, payload = config_payload(tmp_path)
    block = payload if where == "top-level" else payload["segments"][0]
    block[key] = value
    path.write_text(json.dumps(payload))
    name = key if where == "top-level" else f"{where} {key}"
    with pytest.raises(ValueError, match=rf"config\.json: {name} must be an integer, got {value!r}$"):
        load_generator_config(path)


# ---------------------------------------------------------------- boundary property

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.sampled_from([-1, 2**63, 10**400]) | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)

# The JSON paths of every value in the two files below: the top level, each
# segment and the generator config's oracle block.
GENERATOR_SLOTS = [
    ("n_points",), ("seed",), ("segments",), ("oracle",), ("segments", 0),
    *[("segments", 0, key) for key in ("id", "mixture_weight", "feature_means", "feature_stddevs")],
    *[("segments", 0, key) for key in ("oracle_weights", "booking_lognormal")],
    *[("oracle", key) for key in ("C", "noise_sigma", "sample_size", "eval_pool_fraction")],
]
PROFILE_SLOTS = [
    ("m",), ("segments",), ("C",), ("noise_sigma",), ("sample_size",), ("eval_pool_fraction",),
    ("segments", "0"),
]


def replaced(payload, slot, value):
    *parents, last = slot
    block = payload
    for key in parents:
        block = block[key]
    block[last] = value
    return payload


def loads_or_names_the_file(load, path, what):
    try:
        load(path)
    except ValueError as exc:
        assert str(exc).startswith(f"{what} {path}: "), exc


@settings(max_examples=80, deadline=None)
@given(slot=st.sampled_from(GENERATOR_SLOTS), value=JSON_VALUES)
def test_any_generator_config_value_loads_or_names_the_file(tmp_path_factory, slot, value):
    path = write_generator_config(
        tmp_path_factory.mktemp("config") / "config.json",
        {"C": 10, "noise_sigma": 0.1, "sample_size": 40, "eval_pool_fraction": 0.2},
    )
    path.write_text(json.dumps(replaced(json.loads(path.read_text()), slot, value)))
    loads_or_names_the_file(load_generator_config, path, "generator config")


@settings(max_examples=60, deadline=None)
@given(slot=st.sampled_from(PROFILE_SLOTS), value=JSON_VALUES)
def test_any_oracle_profile_value_loads_or_names_the_file(tmp_path_factory, slot, value):
    path = tmp_path_factory.mktemp("oracle") / "oracle.json"
    save_oracle_profile(build_oracle_profile(single_segment_config()), path)
    path.write_text(json.dumps(replaced(json.loads(path.read_text()), slot, value)))
    loads_or_names_the_file(load_oracle_profile, path, "oracle profile")
