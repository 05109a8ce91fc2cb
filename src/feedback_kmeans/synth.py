"""Synthetic flight-search generator with hidden customer segments.

Each point is a round-trip search described by 8 features (fixed order:
distance, advance purchase, stay duration, passengers, children, geography,
departure and return day of week). Points are drawn from a Gaussian mixture
whose components are the hidden segments; every point also gets a booking
count and carries its segment id as generator-only ground truth, which is
what the simulated preference oracle consumes.

generate and standardize build their arrays in place and hand them to the
Dataset read-only, so the Dataset shares them instead of copying them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .core import Dataset, as_integer, as_number, as_numbers, as_seed, check_keys, field_errors, read_json
from .feedback import PROFILE_KEYS, OracleProfile

FEATURE_NAMES = (
    "distance",
    "advance_purchase",
    "stay_duration",
    "n_passengers",
    "n_children",
    "geography",
    "dep_dow",
    "ret_dow",
)
N_FEATURES = len(FEATURE_NAMES)


@dataclass(frozen=True)
class SegmentSpec:
    """One mixture component: feature distribution plus oracle ground truth.

    booking_lognormal holds the (mu, sigma) of the underlying normal for the
    per-point booking counts. Error messages start with the field's name.
    """

    id: int
    mixture_weight: float
    feature_means: tuple[float, ...]
    feature_stddevs: tuple[float, ...]
    oracle_weights: tuple[float, ...]
    booking_lognormal: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "id", as_integer("id", self.id))
        if not -(2**63) <= self.id < 2**63:  # Dataset.hidden_segment is int64
            raise ValueError(f"id must fit in 64 bits, got {self.id}")
        object.__setattr__(self, "mixture_weight", as_number("mixture_weight", self.mixture_weight))
        if self.mixture_weight < 0:
            raise ValueError(f"mixture_weight must be non-negative, got {self.mixture_weight!r}")
        for name, length in (("feature_means", N_FEATURES), ("feature_stddevs", N_FEATURES),
                             ("oracle_weights", None), ("booking_lognormal", 2)):
            object.__setattr__(self, name, as_numbers(name, getattr(self, name), length))
        if min(self.feature_stddevs) < 0 or self.booking_lognormal[1] < 0:
            raise ValueError("feature_stddevs and the booking_lognormal sigma must be non-negative")


@dataclass(frozen=True)
class GeneratorConfig:
    n_points: int
    segments: tuple[SegmentSpec, ...]
    seed: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_points", as_integer("n_points", self.n_points))
        object.__setattr__(self, "seed", as_seed("seed", self.seed))
        object.__setattr__(self, "segments", tuple(self.segments))
        if self.n_points < 1:
            raise ValueError("n_points must be positive")
        if not self.segments:
            raise ValueError("at least one segment is required")
        ids = [s.id for s in self.segments]
        if len(set(ids)) != len(ids):
            raise ValueError("segment ids must be distinct")
        total = sum(s.mixture_weight for s in self.segments)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1, got {total!r}")


# Column indices of the post-processed features.
_COL_PASSENGERS = FEATURE_NAMES.index("n_passengers")
_COL_CHILDREN = FEATURE_NAMES.index("n_children")
_COL_GEOGRAPHY = FEATURE_NAMES.index("geography")
_COL_DEP_DOW = FEATURE_NAMES.index("dep_dow")
_COL_RET_DOW = FEATURE_NAMES.index("ret_dow")
# The generator's 20 origin and 20 destination codes, shared by every point.
_ORIGIN_CODES = tuple(f"O{i:02d}" for i in range(20))
_DESTINATION_CODES = tuple(f"D{i:02d}" for i in range(20))


def generate(config: GeneratorConfig) -> Dataset:
    """Draw a dataset from the mixture; deterministic per config.seed.

    Post-processing keeps categorical-ish features in their legal ranges
    while every value stays a float64: passenger/children counts are rounded
    (>= 1 and >= 0 respectively), geography is quantized to {0, 1, 2} and
    day-of-week values to integers in [0, 6].
    """
    rng = np.random.default_rng(config.seed)
    n = config.n_points
    segs = config.segments
    weights = np.array([s.mixture_weight for s in segs])
    weights = weights / weights.sum()
    choice = rng.choice(len(segs), size=n, p=weights)

    means = np.array([s.feature_means for s in segs])
    stds = np.array([s.feature_stddevs for s in segs])
    # In place, so no (n, 8) product is held beside the draw; the same two
    # operations, in the same order, as draw * stds + means.
    features = rng.standard_normal((n, N_FEATURES))
    features *= stds[choice]
    features += means[choice]

    features[:, _COL_PASSENGERS] = np.maximum(1.0, np.rint(features[:, _COL_PASSENGERS]))
    # A draw in [-0.5, 0) rounds to -0.0, which maximum and clip keep;
    # adding 0.0 makes it +0.0 and leaves every other value as it is.
    features[:, _COL_CHILDREN] = np.maximum(0.0, np.rint(features[:, _COL_CHILDREN])) + 0.0
    features[:, _COL_GEOGRAPHY] = np.clip(np.rint(features[:, _COL_GEOGRAPHY]), 0.0, 2.0) + 0.0
    for col in (_COL_DEP_DOW, _COL_RET_DOW):
        features[:, col] = np.clip(np.rint(features[:, col]), 0.0, 6.0) + 0.0

    booking_mu = np.array([s.booking_lognormal[0] for s in segs])[choice]
    booking_sigma = np.array([s.booking_lognormal[1] for s in segs])[choice]
    bookings = np.maximum(0.0, np.rint(rng.lognormal(booking_mu, booking_sigma))).astype(np.int64)

    hidden = np.array([s.id for s in segs], dtype=np.int64)[choice]
    origin_idx = rng.integers(0, len(_ORIGIN_CODES), size=n)
    dest_idx = rng.integers(0, len(_DESTINATION_CODES), size=n)
    origins = tuple(map(_ORIGIN_CODES.__getitem__, origin_idx.tolist()))
    destinations = tuple(map(_DESTINATION_CODES.__getitem__, dest_idx.tolist()))

    # Read-only, so the Dataset shares these arrays instead of copying them.
    for values in (features, bookings, hidden):
        values.setflags(write=False)
    return Dataset(
        points=features,
        feature_names=FEATURE_NAMES,
        bookings=bookings,
        hidden_segment=hidden,
        origins=origins,
        destinations=destinations,
    )


@dataclass(frozen=True)
class FeatureScaling:
    """Per-feature z-score parameters; stddev 0 marks pass-through columns."""

    mean: np.ndarray
    stddev: np.ndarray

    def apply(self, points: np.ndarray) -> np.ndarray:
        """The z-scored points in one new array; pass-through columns are
        copied back from the input."""
        varying = self.stddev > 0
        scaled = points - self.mean
        scaled /= np.where(varying, self.stddev, 1.0)
        np.copyto(scaled, points, where=~varying)
        return scaled


def standardize(dataset: Dataset) -> tuple[Dataset, FeatureScaling]:
    """Z-score each feature; constant features pass through unscaled."""
    mean = dataset.points.mean(axis=0)
    stddev = dataset.points.std(axis=0)
    scaling = FeatureScaling(mean=mean, stddev=stddev)
    points = scaling.apply(dataset.points)
    points.setflags(write=False)
    return replace(dataset, points=points), scaling


def build_oracle_profile(config: GeneratorConfig, **knobs) -> OracleProfile:
    """Oracle profile with the config's segment weights, so it covers every
    generated point; knobs set its other fields, which default otherwise."""
    return OracleProfile(segment_weights={s.id: s.oracle_weights for s in config.segments}, **knobs)


# The keys a generator config JSON may hold: at the top level, in each
# segment and in the optional "oracle" block, which takes the profile file's
# keys but m and segments (the segments imply them).
_CONFIG_KEYS = ("n_points", "seed", "segments", "oracle")
_SEGMENT_KEYS = tuple(f.name for f in fields(SegmentSpec))
_ORACLE_KEYS = {key: field for key, field in PROFILE_KEYS.items() if key not in ("m", "segments")}


def load_generator_config(path: str | Path) -> tuple[GeneratorConfig, OracleProfile]:
    """Parse a generator config JSON and build its oracle profile; every error names the file."""
    what = f"generator config {path}"
    payload = read_json(path, what)
    check_keys(what, "top-level", payload, _CONFIG_KEYS)
    with field_errors(f"{what}: "):
        segments = payload["segments"]
    if not isinstance(segments, list):
        raise ValueError(f"{what}: segments must be a JSON list, got {segments!r}")
    oracle = payload.get("oracle", {})
    check_keys(what, "oracle", oracle, _ORACLE_KEYS)
    specs = []
    for index, segment in enumerate(segments):
        check_keys(what, f"segment {index}", segment, _SEGMENT_KEYS)
        with field_errors(f"{what}: segment {index} "):
            specs.append(SegmentSpec(**{key: segment[key] for key in _SEGMENT_KEYS}))
    with field_errors(f"{what}: ", _ORACLE_KEYS, oracle):
        config = GeneratorConfig(n_points=payload["n_points"], segments=specs, seed=payload["seed"])
        profile = build_oracle_profile(config, **{_ORACLE_KEYS[key]: value for key, value in oracle.items()})
    return config, profile


def demo_generator_config(n_points: int = 20_000, seed: int = 7) -> GeneratorConfig:
    """A planted four-segment mix loosely shaped like travel demand:
    short-notice business trips, long-planned vacations, family holidays and
    weekend getaways. Segments are separable in feature space and carry
    distinct oracle preference weights."""
    segments = (
        SegmentSpec(
            id=0,
            mixture_weight=0.35,
            feature_means=(800.0, 7.0, 2.0, 1.0, 0.0, 0.0, 1.0, 4.0),
            feature_stddevs=(200.0, 3.0, 1.0, 0.3, 0.1, 0.3, 1.0, 1.0),
            oracle_weights=(2.5, 0.0, 0.0, 0.0),
            booking_lognormal=(3.0, 1.0),
        ),
        SegmentSpec(
            id=1,
            mixture_weight=0.30,
            feature_means=(3000.0, 60.0, 14.0, 2.0, 0.0, 2.0, 3.0, 3.0),
            feature_stddevs=(800.0, 15.0, 4.0, 0.5, 0.3, 0.4, 2.0, 2.0),
            oracle_weights=(0.0, 2.0, 0.0, 0.0),
            booking_lognormal=(2.5, 1.2),
        ),
        SegmentSpec(
            id=2,
            mixture_weight=0.20,
            feature_means=(1200.0, 30.0, 10.0, 4.0, 2.0, 1.0, 5.0, 0.0),
            feature_stddevs=(300.0, 10.0, 3.0, 1.0, 0.8, 0.5, 1.0, 1.5),
            oracle_weights=(0.0, 0.0, 1.5, 0.0),
            booking_lognormal=(2.0, 1.0),
        ),
        SegmentSpec(
            id=3,
            mixture_weight=0.15,
            feature_means=(500.0, 14.0, 2.0, 2.0, 0.0, 0.0, 4.0, 6.0),
            feature_stddevs=(150.0, 5.0, 1.0, 0.5, 0.2, 0.3, 0.8, 0.5),
            oracle_weights=(0.5, 0.5, 0.5, 0.5),
            booking_lognormal=(3.5, 0.8),
        ),
    )
    return GeneratorConfig(n_points=n_points, segments=segments, seed=seed)
