"""Pluggable per-cluster feedback providers.

Two providers are built in:

* RSS, the deterministic geometric index: per-cluster mean squared
  distance to the centroid, lower is better.
* Customizability, a simulated preference oracle: higher is better and
  non-deterministic. Each hidden customer segment owns a true preference
  weight vector; a cluster is scored by fitting weights on its most-booked
  points, scoring a freshly sampled evaluation set under the fitted
  weights and under the zero (price-only) baseline, and reporting the
  relative change between the two popularity values.

The oracle's score of a point under weights w is
``C - ||w - w*_seg||^2 + noise`` with w*_seg the point's hidden segment
weights, so the fitted optimum has a closed form (the mean of the sample's
true weight vectors) and every oracle value used in tests is derivable by
hand.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from .core import Clustering, Dataset, FeedbackReport, Sense, _frozen_f64, validate_clustering
from .rng import substream

BASELINE_EPSILON = 1e-12
POP_BASELINE_EPSILON = 1e-9


def rss_cluster(points: np.ndarray, centroid: np.ndarray) -> float:
    """Mean squared distance of a cluster's points to its centroid."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[0] == 0:
        raise ValueError("rss_cluster requires a non-empty cluster")
    diff = points - np.asarray(centroid, dtype=np.float64)
    return float(np.mean(np.einsum("nd,nd->n", diff, diff)))


def aggregate_weighted(per_cluster, sizes) -> float:
    """Average of per-cluster values weighted by cluster sizes."""
    values = np.asarray(per_cluster, dtype=np.float64)
    counts = np.asarray(sizes, dtype=np.float64)
    if values.shape != counts.shape:
        raise ValueError(
            f"per-cluster values and sizes length mismatch: {values.shape} vs {counts.shape}"
        )
    total = counts.sum()
    if total <= 0:
        raise ValueError("cluster sizes must sum to a positive count")
    return float(np.dot(values, counts / total))


def relative_change(reference: float, new: float) -> float:
    """(new - reference) / |reference|."""
    reference = float(reference)
    if abs(reference) < BASELINE_EPSILON:
        raise ValueError(f"degenerate baseline: |{reference!r}| < {BASELINE_EPSILON}")
    return (float(new) - reference) / abs(reference)


@dataclass(frozen=True)
class OracleProfile:
    """Hidden ground truth powering the simulated customizability oracle.

    Attributes:
        segment_weights: true preference weight vector per hidden segment id.
        m: weight-space dimension (every vector must have length m).
        score_offset: the constant C in the score C - ||w - w*||^2; bounding
            ||w*||^2 <= C keeps the zero-weight baseline popularity
            non-negative, away from sign flips.
        noise_sigma: stddev of the per-point Gaussian score noise.
        sample_size: points used to fit weights and the evaluation draw size.
        eval_pool_fraction: top fraction of a cluster (by bookings) from
            which evaluation points are sampled.
        rng_seed: root of the oracle's substreams; evaluation noise and
            sampling are fully determined by (rng_seed, step, cluster).
    """

    segment_weights: dict[int, np.ndarray]
    m: int | None = None
    score_offset: float = 10.0
    noise_sigma: float = 0.05
    sample_size: int = 100
    eval_pool_fraction: float = 0.2
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.segment_weights:
            raise ValueError("oracle profile needs at least one segment")
        weights: dict[int, np.ndarray] = {}
        m = self.m
        for seg, w in self.segment_weights.items():
            arr = _frozen_f64(w, f"segment {seg}: weights", ndim=1)
            if m is None:
                m = arr.shape[0]
            if arr.shape[0] != m:
                raise ValueError(
                    f"segment {seg}: weight vector length {arr.shape[0]} != m={m}"
                )
            if float(arr @ arr) > self.score_offset + 1e-12:
                raise ValueError(
                    f"segment {seg}: ||w*||^2 = {float(arr @ arr):g} exceeds the "
                    f"score offset {self.score_offset:g}"
                )
            weights[int(seg)] = arr
        object.__setattr__(self, "segment_weights", weights)
        object.__setattr__(self, "m", int(m))
        # Sorted segment ids and the (S, m) table of their weight rows, so a
        # lookup is one searchsorted and one gather.
        seg_ids = sorted(weights)
        object.__setattr__(self, "_segment_ids", np.array(seg_ids, dtype=np.int64))
        object.__setattr__(self, "_segment_table", np.stack([weights[seg] for seg in seg_ids]))
        if self.score_offset <= 0:
            raise ValueError("score_offset must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if not 0 < self.eval_pool_fraction <= 1:
            raise ValueError("eval_pool_fraction must lie in (0, 1]")

    def with_rng_seed(self, rng_seed: int) -> "OracleProfile":
        return replace(self, rng_seed=int(rng_seed))


def _labels(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The dataset's (bookings, hidden_segment), which the oracle needs."""
    if dataset.bookings is None or dataset.hidden_segment is None:
        raise ValueError("oracle requires generator-labeled data")
    return dataset.bookings, dataset.hidden_segment


def _segment_weight_rows(dataset: Dataset, indices: np.ndarray, profile: OracleProfile) -> np.ndarray:
    segs = _labels(dataset)[1][indices]
    seg_ids = profile._segment_ids
    pos = np.minimum(np.searchsorted(seg_ids, segs), seg_ids.size - 1)
    missing = np.flatnonzero(seg_ids[pos] != segs)
    if missing.size:
        raise ValueError(f"segment {int(segs[missing[0]])} missing from oracle profile")
    return profile._segment_table[pos]


def fit_weights(dataset: Dataset, sample_indices, profile: OracleProfile) -> np.ndarray:
    """Simulated weight-fitting routine: the exact maximizer of the mean
    noiseless score over the sample, which for the squared-distance score is
    the arithmetic mean of the sample's true segment weight vectors."""
    sample_indices = np.asarray(sample_indices, dtype=np.int64)
    if sample_indices.size == 0:
        raise ValueError("fit sample is empty")
    return _segment_weight_rows(dataset, sample_indices, profile).mean(axis=0)


def popularity(
    dataset: Dataset,
    eval_indices,
    weights: np.ndarray,
    profile: OracleProfile,
    rng: np.random.Generator,
) -> float:
    """Mean score of the evaluation points under the given weights.

    score(x, w) = C - ||w - w*_seg(x)||^2 + eps, eps ~ N(0, noise_sigma^2)
    drawn per point from the supplied stream.
    """
    eval_indices = np.asarray(eval_indices, dtype=np.int64)
    if eval_indices.size == 0:
        raise ValueError("evaluation sample is empty")
    true_w = _segment_weight_rows(dataset, eval_indices, profile)
    diff = np.asarray(weights, dtype=np.float64) - true_w
    scores = profile.score_offset - np.einsum("nd,nd->n", diff, diff)
    noise = rng.normal(0.0, profile.noise_sigma, size=eval_indices.size)
    return float(np.mean(scores + noise))


def customizability_cluster(
    dataset: Dataset,
    member_indices,
    profile: OracleProfile,
    rng: np.random.Generator,
) -> float:
    """Customizability of one cluster.

    Protocol: fit weights on the cluster's most-booked points, sample a
    fresh evaluation set from the remaining top-booked pool, and report the
    relative change of the fitted-weight popularity against the zero-weight
    baseline. The evaluation draw makes the value non-deterministic.
    """
    member_indices = np.asarray(member_indices, dtype=np.int64)
    n = member_indices.size
    if n < 2:
        raise ValueError("customizability needs a cluster of at least 2 points")
    bookings = _labels(dataset)[0][member_indices]
    # Descending bookings; the stable sort breaks ties by lowest point index
    # because member_indices is ascending.
    ranked = member_indices[np.argsort(-bookings, kind="stable")]
    fit_count = profile.sample_size if n >= 2 * profile.sample_size else n // 2
    fit_set = ranked[:fit_count]
    pool_count = int(math.ceil(profile.eval_pool_fraction * n))
    pool = ranked[fit_count:pool_count]
    if pool.size == 0:
        pool = ranked[fit_count:]
    if pool.size <= profile.sample_size:
        eval_set = pool
    else:
        eval_set = np.sort(rng.choice(pool, size=profile.sample_size, replace=False))
    fitted = fit_weights(dataset, fit_set, profile)
    pop_w = popularity(dataset, eval_set, fitted, profile, rng)
    pop_0 = popularity(dataset, eval_set, np.zeros(profile.m), profile, rng)
    if abs(pop_0) < POP_BASELINE_EPSILON:
        raise ValueError("degenerate price baseline")
    return relative_change(pop_0, pop_w)


@runtime_checkable
class FeedbackProvider(Protocol):
    """What engines need from a feedback source."""

    kind: str
    sense: Sense
    deterministic: bool

    def evaluate(
        self, dataset: Dataset, clustering: Clustering, rng: np.random.Generator | None = None
    ) -> FeedbackReport: ...

    def evaluation_rng(self, step: int) -> np.random.Generator | None: ...


def evaluate_per_cluster(
    dataset: Dataset,
    clustering: Clustering,
    sense: Sense,
    value_of: Callable[[int, np.ndarray], float],
) -> FeedbackReport:
    """Feedback report of value_of(cluster_id, members) over the clusters.

    Validates the clustering, calls value_of once per cluster in id order
    with the cluster's point indices (ascending), and aggregates the values
    weighted by cluster size. Providers implement evaluate with it.
    """
    violations = validate_clustering(dataset, clustering)
    if violations:
        raise ValueError("invalid clustering: " + "; ".join(violations))
    values = []
    sizes = []
    for cid in range(clustering.k):
        members = clustering.members(cid)
        values.append(value_of(cid, members))
        sizes.append(members.size)
    return FeedbackReport(
        per_cluster=tuple(values),
        aggregate=aggregate_weighted(values, sizes),
        sense=sense,
    )


class RssFeedback:
    """Deterministic geometric feedback (lower is better)."""

    kind = "rss"
    sense = Sense.LOWER_IS_BETTER
    deterministic = True

    def evaluate(
        self, dataset: Dataset, clustering: Clustering, rng: np.random.Generator | None = None
    ) -> FeedbackReport:
        return evaluate_per_cluster(
            dataset,
            clustering,
            self.sense,
            lambda cid, members: rss_cluster(dataset.points[members], clustering.centroids[cid]),
        )

    def evaluation_rng(self, step: int) -> None:
        return None


class CustomizabilityFeedback:
    """Simulated preference-oracle feedback (higher is better).

    Each cluster draws its randomness from its own child of the supplied
    generator, spawned in cluster-id order (the children of
    ``rng.spawn(k)``), so a cluster's value does not depend on the values
    drawn for the others.
    """

    kind = "custom"
    sense = Sense.HIGHER_IS_BETTER
    deterministic = False

    def __init__(self, profile: OracleProfile):
        self.profile = profile

    def evaluate(
        self, dataset: Dataset, clustering: Clustering, rng: np.random.Generator | None = None
    ) -> FeedbackReport:
        if rng is None:
            rng = self.evaluation_rng(0)
        return evaluate_per_cluster(
            dataset,
            clustering,
            self.sense,
            lambda cid, members: customizability_cluster(
                dataset, members, self.profile, rng.spawn(1)[0]
            ),
        )

    def evaluation_rng(self, step: int) -> np.random.Generator:
        return substream(self.profile.rng_seed, "eval", step)


def provider_from_name(name: str, profile: OracleProfile | None = None) -> FeedbackProvider:
    """Build the provider selected by name ("rss" | "custom")."""
    if name == "rss":
        return RssFeedback()
    if name == "custom":
        if profile is None:
            raise ValueError("customizability feedback requires an oracle profile")
        return CustomizabilityFeedback(profile)
    raise ValueError(f"unknown feedback provider {name!r} (expected 'rss' or 'custom')")


def save_oracle_profile(profile: OracleProfile, path: str | Path) -> None:
    """Serialize a profile to JSON. The rng seed is run configuration, not
    part of the profile file; loaders supply it."""
    payload = {
        "m": profile.m,
        "segments": {
            str(seg): [float(v) for v in w] for seg, w in sorted(profile.segment_weights.items())
        },
        "C": float(profile.score_offset),
        "noise_sigma": float(profile.noise_sigma),
        "sample_size": int(profile.sample_size),
        "eval_pool_fraction": float(profile.eval_pool_fraction),
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_oracle_profile(path: str | Path, rng_seed: int = 0) -> OracleProfile:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        segments = {int(seg): np.asarray(w, dtype=np.float64) for seg, w in payload["segments"].items()}
        return OracleProfile(
            segment_weights=segments,
            m=int(payload["m"]),
            score_offset=float(payload["C"]),
            noise_sigma=float(payload["noise_sigma"]),
            sample_size=int(payload["sample_size"]),
            eval_pool_fraction=float(payload["eval_pool_fraction"]),
            rng_seed=int(rng_seed),
        )
    except KeyError as missing:
        raise ValueError(f"oracle profile {path}: missing field {missing}") from None
