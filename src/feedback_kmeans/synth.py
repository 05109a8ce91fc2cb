"""Synthetic flight-search generator with hidden customer segments.

Each point is a round-trip search described by 8 features (fixed order:
distance, advance purchase, stay duration, passengers, children, geography,
departure and return day of week). Points are drawn from a Gaussian mixture
whose components are the hidden segments; every point also gets a booking
count and carries its segment id as generator-only ground truth, which is
what the simulated preference oracle consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .core import Dataset, as_integer, check_keys
from .feedback import OracleProfile

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
    per-point booking counts.
    """

    id: int
    mixture_weight: float
    feature_means: tuple[float, ...]
    feature_stddevs: tuple[float, ...]
    oracle_weights: tuple[float, ...]
    booking_lognormal: tuple[float, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "feature_means", tuple(float(v) for v in self.feature_means))
        object.__setattr__(self, "feature_stddevs", tuple(float(v) for v in self.feature_stddevs))
        object.__setattr__(self, "oracle_weights", tuple(float(v) for v in self.oracle_weights))
        mu, sigma = self.booking_lognormal
        object.__setattr__(self, "booking_lognormal", (float(mu), float(sigma)))
        if len(self.feature_means) != N_FEATURES or len(self.feature_stddevs) != N_FEATURES:
            raise ValueError(
                f"segment {self.id}: feature means/stddevs must have {N_FEATURES} entries"
            )
        if any(s < 0 for s in self.feature_stddevs):
            raise ValueError(f"segment {self.id}: stddevs must be non-negative")
        if sigma < 0:
            raise ValueError(f"segment {self.id}: booking sigma must be non-negative")


@dataclass(frozen=True)
class GeneratorConfig:
    n_points: int
    segments: tuple[SegmentSpec, ...]
    seed: int

    def __post_init__(self) -> None:
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

    means = np.array([s.feature_means for s in segs])[choice]
    stds = np.array([s.feature_stddevs for s in segs])[choice]
    features = rng.standard_normal((n, N_FEATURES)) * stds + means

    features[:, _COL_PASSENGERS] = np.maximum(1.0, np.rint(features[:, _COL_PASSENGERS]))
    features[:, _COL_CHILDREN] = np.maximum(0.0, np.rint(features[:, _COL_CHILDREN]))
    features[:, _COL_GEOGRAPHY] = np.clip(np.rint(features[:, _COL_GEOGRAPHY]), 0.0, 2.0)
    for col in (_COL_DEP_DOW, _COL_RET_DOW):
        features[:, col] = np.clip(np.rint(features[:, col]), 0.0, 6.0)

    booking_mu = np.array([s.booking_lognormal[0] for s in segs])[choice]
    booking_sigma = np.array([s.booking_lognormal[1] for s in segs])[choice]
    bookings = np.maximum(0.0, np.rint(rng.lognormal(booking_mu, booking_sigma))).astype(np.int64)

    hidden = np.array([s.id for s in segs], dtype=np.int64)[choice]
    origin_idx = rng.integers(0, 20, size=n)
    dest_idx = rng.integers(0, 20, size=n)
    origins = tuple(f"O{i:02d}" for i in origin_idx)
    destinations = tuple(f"D{i:02d}" for i in dest_idx)

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
        scale = np.where(self.stddev > 0, self.stddev, 1.0)
        scaled = (points - self.mean) / scale
        return np.where(self.stddev > 0, scaled, points)

    def invert(self, points: np.ndarray) -> np.ndarray:
        restored = points * np.where(self.stddev > 0, self.stddev, 1.0) + self.mean
        return np.where(self.stddev > 0, restored, points)


def standardize(dataset: Dataset) -> tuple[Dataset, FeatureScaling]:
    """Z-score each feature; constant features pass through unscaled."""
    mean = dataset.points.mean(axis=0)
    stddev = dataset.points.std(axis=0)
    scaling = FeatureScaling(mean=mean, stddev=stddev)
    return (
        Dataset(
            points=scaling.apply(dataset.points),
            feature_names=dataset.feature_names,
            bookings=dataset.bookings,
            hidden_segment=dataset.hidden_segment,
            origins=dataset.origins,
            destinations=dataset.destinations,
        ),
        scaling,
    )


def build_oracle_profile(config: GeneratorConfig, **knobs) -> OracleProfile:
    """Oracle profile whose hidden weights come from the generator config,
    so every generated point's segment is covered; knobs are the other
    OracleProfile fields (score_offset, noise_sigma, sample_size,
    eval_pool_fraction, rng_seed), which keep its defaults when left out."""
    segment_weights = {s.id: np.asarray(s.oracle_weights) for s in config.segments}
    return OracleProfile(segment_weights=segment_weights, **knobs)


# The keys a generator config JSON may hold: at the top level, in each
# segment and in the optional "oracle" block ("C" is score_offset's other
# name).
_CONFIG_KEYS = ("n_points", "seed", "segments", "oracle")
_SEGMENT_KEYS = (
    "id", "mixture_weight", "feature_means", "feature_stddevs", "oracle_weights", "booking_lognormal",
)
_ORACLE_KEYS = ("score_offset", "C", "noise_sigma", "sample_size", "eval_pool_fraction")


def load_generator_config(path: str | Path) -> tuple[GeneratorConfig, dict]:
    """Parse a generator config JSON; a key it does not know is an error.

    Returns the config plus the optional "oracle" knob object (score offset,
    noise, sample size, pool fraction) to forward to build_oracle_profile.
    """
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    what = f"generator config {path}"
    check_keys(what, "top-level", payload, _CONFIG_KEYS)
    for index, segment in enumerate(payload.get("segments", [])):
        check_keys(what, f"segment {index}", segment, _SEGMENT_KEYS)
    oracle = payload.get("oracle", {})
    check_keys(what, "oracle", oracle, _ORACLE_KEYS)
    try:
        segments = tuple(
            SegmentSpec(
                id=as_integer(f"segment {index} id", s["id"]),
                mixture_weight=float(s["mixture_weight"]),
                feature_means=s["feature_means"],
                feature_stddevs=s["feature_stddevs"],
                oracle_weights=s["oracle_weights"],
                booking_lognormal=tuple(s["booking_lognormal"]),
            )
            for index, s in enumerate(payload["segments"])
        )
        config = GeneratorConfig(
            n_points=as_integer("n_points", payload["n_points"]),
            segments=segments,
            seed=as_integer("seed", payload["seed"]),
        )
    except (KeyError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"generator config {path}: {detail}") from None
    if "score_offset" in oracle and "C" in oracle:
        raise ValueError(f"generator config {path}: oracle sets both 'score_offset' and 'C'")
    oracle_kwargs = {"score_offset" if key == "C" else key: value for key, value in oracle.items()}
    return config, oracle_kwargs


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
