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

import copy
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from .core import Clustering, Dataset, FeedbackReport, Sense, _frozen_f64, as_integer, as_number, check_keys
from .core import keyed_errors, read_json, validate_clustering
from .kmeans import own_squared_distances
from .rng import substream

BASELINE_EPSILON = 1e-12
POP_BASELINE_EPSILON = 1e-9


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


@dataclass(frozen=True, eq=False)
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
        for name in ("score_offset", "noise_sigma", "eval_pool_fraction"):
            object.__setattr__(self, name, as_number(name, getattr(self, name)))
        for name in ("sample_size", "rng_seed"):
            object.__setattr__(self, name, as_integer(name, getattr(self, name)))
        if self.score_offset <= 0:
            raise ValueError("score_offset must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if self.sample_size < 1:
            raise ValueError("sample_size must be at least 1")
        if not 0 < self.eval_pool_fraction <= 1:
            raise ValueError("eval_pool_fraction must lie in (0, 1]")
        if not self.segment_weights:
            raise ValueError("oracle profile needs at least one segment")
        weights: dict[int, np.ndarray] = {}
        m = None if self.m is None else as_integer("m", self.m)
        for seg, w in self.segment_weights.items():
            arr = _frozen_f64(w, f"segment {seg}: weights", ndim=1)
            if not np.isfinite(arr).all():
                raise ValueError(f"segment {seg}: weights must be finite, got {arr.tolist()}")
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
        # Sorted segment ids and the (S, m) table of their weight rows: a
        # lookup searches the ids. The profile holds nothing else, so it is
        # immutable once built and threads may share it.
        seg_ids = sorted(weights)
        object.__setattr__(self, "_segment_ids", np.array(seg_ids, dtype=np.int64))
        object.__setattr__(self, "_segment_table", np.stack([weights[seg] for seg in seg_ids]))

    def with_rng_seed(self, rng_seed: int) -> "OracleProfile":
        """This profile under another seed. Only the seed is checked: the
        copy shares the checked weights and the segment table."""
        profile = copy.copy(self)
        object.__setattr__(profile, "rng_seed", as_integer("rng_seed", rng_seed))
        return profile


def _labels(dataset: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """The dataset's (bookings, hidden_segment), which the oracle needs."""
    if dataset.bookings is None or dataset.hidden_segment is None:
        raise ValueError("oracle requires generator-labeled data")
    return dataset.bookings, dataset.hidden_segment


def _segment_weight_rows(dataset: Dataset, indices: np.ndarray, profile: OracleProfile) -> np.ndarray:
    """The true weight rows of the given points, found by searching the
    profile's sorted segment ids; a missing segment is named for the first
    point that has it."""
    segs = _labels(dataset)[1].take(indices)
    rows = profile._segment_ids.searchsorted(segs)
    found = profile._segment_ids.take(rows, mode="clip")
    if not np.array_equal(found, segs):
        raise ValueError(f"segment {int(segs[np.argmax(found != segs)])} missing from oracle profile")
    return profile._segment_table.take(rows, axis=0)


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

    member_indices may be ascending or already ranked as
    Dataset.booking_rank ranks them; the stable sort ranks both alike.
    """
    member_indices = np.asarray(member_indices, dtype=np.int64)
    n = member_indices.size
    if n < 2:
        raise ValueError("customizability needs a cluster of at least 2 points")
    bookings = _labels(dataset)[0][member_indices]
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
    # One lookup for both sets: a missing segment is named for the first
    # sampled point that has it, fit points before evaluation points.
    true_w = _segment_weight_rows(dataset, np.concatenate([fit_set, eval_set]), profile)
    # Means as np.mean computes them (a sum reduction, then a division).
    fitted = np.add.reduce(true_w[:fit_count], axis=0) / fit_count
    true_eval = true_w[fit_count:]
    # One draw: the first half is the fitted popularity's noise, the second
    # half the baseline's.
    draws = eval_set.size
    noise = rng.normal(0.0, profile.noise_sigma, size=2 * draws)
    diff = fitted - true_eval
    pop_w = float(np.add.reduce(profile.score_offset - np.einsum("nd,nd->n", diff, diff) + noise[:draws]) / draws)
    pop_0 = float(np.add.reduce(profile.score_offset - np.einsum("nd,nd->n", true_eval, true_eval) + noise[draws:]) / draws)
    if abs(pop_0) < POP_BASELINE_EPSILON:
        raise ValueError("degenerate price baseline")
    return relative_change(pop_0, pop_w)


class FeedbackProvider(Protocol):
    """What engines need from a feedback source: its sense, an evaluation
    of a clustering under a given stream, and the stream for each step
    (None for a deterministic provider)."""

    sense: Sense

    def evaluate(
        self, dataset: Dataset, clustering: Clustering, rng: np.random.Generator | None
    ) -> FeedbackReport: ...

    def evaluation_rng(self, step: int) -> np.random.Generator | None: ...


def evaluate_per_cluster(
    dataset: Dataset,
    clustering: Clustering,
    sense: Sense,
    value_of: Callable[[int, np.ndarray], float],
    order: np.ndarray | None = None,
) -> FeedbackReport:
    """Feedback report of value_of(cluster_id, members) over the clusters.

    Validates the clustering, calls value_of once per cluster in id order
    with the cluster's point indices, and aggregates the values weighted by
    cluster size. Providers implement evaluate with it.

    The members come in the sequence of order, a permutation of the point
    indices, or ascending when order is None. One stable sort of the
    assignment groups every cluster's members at once.
    """
    violations = validate_clustering(dataset, clustering)
    if violations:
        raise ValueError("invalid clustering: " + "; ".join(violations))
    # numpy's stable sort of 8- and 16-bit integers is a radix sort.
    k = clustering.k
    key_type = np.uint8 if k <= 256 else np.uint16 if k <= 65536 else np.int64
    keys = clustering.assignment if order is None else clustering.assignment[order]
    grouped = np.argsort(keys.astype(key_type), kind="stable")
    if order is not None:
        grouped = order[grouped]
    sizes = clustering.sizes()
    stops = np.cumsum(sizes).tolist()
    starts = [0] + stops[:-1]
    values = [value_of(cid, grouped[a:b]) for cid, (a, b) in enumerate(zip(starts, stops))]
    return FeedbackReport(
        per_cluster=tuple(values),
        aggregate=aggregate_weighted(values, sizes),
        sense=sense,
    )


class RssFeedback:
    """Deterministic geometric feedback (lower is better): a cluster's value
    is the mean squared distance of its points to its centroid."""

    sense = Sense.LOWER_IS_BETTER

    def evaluate(
        self, dataset: Dataset, clustering: Clustering, rng: np.random.Generator | None = None
    ) -> FeedbackReport:
        @functools.cache
        def own_distances() -> np.ndarray:
            # Every point's squared distance to its own centroid, computed on
            # the first cluster, once evaluate_per_cluster has validated.
            return own_squared_distances(dataset.columns, clustering.centroids, clustering.assignment)

        return evaluate_per_cluster(
            dataset,
            clustering,
            self.sense,
            # np.mean's arithmetic (a sum reduction, then a division)
            # without its Python wrapper.
            lambda cid, members: float(np.add.reduce(own_distances()[members]) / members.size),
        )

    def evaluation_rng(self, step: int) -> None:
        return None


class CustomizabilityFeedback:
    """Simulated preference-oracle feedback (higher is better).

    Each cluster draws its randomness from its own child of the supplied
    generator, spawned in cluster-id order (the children of
    ``rng.spawn(k)``), so a cluster's value does not depend on the values
    drawn for the others. Members reach the oracle already ranked by
    bookings.
    """

    sense = Sense.HIGHER_IS_BETTER

    def __init__(self, profile: OracleProfile):
        self.profile = profile

    def evaluate(
        self, dataset: Dataset, clustering: Clustering, rng: np.random.Generator
    ) -> FeedbackReport:
        streams = rng.spawn(clustering.k)
        # Unlabeled data keeps the default order, so that the oracle names
        # the missing labels after the clustering is validated.
        order = None if dataset.bookings is None else dataset.booking_rank
        return evaluate_per_cluster(
            dataset,
            clustering,
            self.sense,
            lambda cid, members: customizability_cluster(dataset, members, self.profile, streams[cid]),
            order,
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


# An oracle profile file's keys, mapped to the OracleProfile fields they hold.
PROFILE_KEYS = {
    "m": "m", "segments": "segment_weights", "C": "score_offset", "noise_sigma": "noise_sigma",
    "sample_size": "sample_size", "eval_pool_fraction": "eval_pool_fraction",
}


def save_oracle_profile(profile: OracleProfile, path: str | Path) -> None:
    """Serialize a profile to JSON. The rng seed is run configuration, not
    part of the profile file; each run re-seeds the loaded profile."""
    payload = {key: getattr(profile, field) for key, field in PROFILE_KEYS.items()}
    payload["segments"] = {str(seg): w.tolist() for seg, w in profile.segment_weights.items()}
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def load_oracle_profile(path: str | Path) -> OracleProfile:
    """Read a profile written by save_oracle_profile; a key it does not
    know is an error. Its rng seed is 0, and each run sets its own."""
    what = f"oracle profile {path}"
    payload = read_json(path, what)
    check_keys(what, "top level", payload, PROFILE_KEYS)
    try:
        fields = {field: payload[key] for key, field in PROFILE_KEYS.items()}
        if not isinstance(fields["segment_weights"], dict):
            raise ValueError("field 'segments' must be a JSON object of segment id -> weights")
        with keyed_errors(PROFILE_KEYS, payload):
            return OracleProfile(**fields)  # it reads the ids and the weights
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        detail = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{what}: {detail}") from None
