"""Shared domain types: datasets, clusterings, feedback reports, run traces.

All types are immutable values after construction; operators and engines
produce new values instead of mutating. Numpy arrays held by these types
are marked read-only.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass

import numpy as np


class Sense(enum.Enum):
    """Orientation of a feedback value."""

    HIGHER_IS_BETTER = "higher"
    LOWER_IS_BETTER = "lower"

    def better(self, candidate: float, incumbent: float) -> bool:
        """True iff candidate is strictly better than incumbent."""
        if self is Sense.HIGHER_IS_BETTER:
            return candidate > incumbent
        return candidate < incumbent

    def reached(self, value: float, target: float) -> bool:
        """True iff value is at least as good as target."""
        if self is Sense.HIGHER_IS_BETTER:
            return value >= target
        return value <= target

    def worst_first(self, values) -> list[int]:
        """Indices of values ordered worst to best, ties by lowest index."""
        sign = -1.0 if self is Sense.LOWER_IS_BETTER else 1.0
        return sorted(range(len(values)), key=lambda i: (sign * values[i], i))


# The two helpers below freeze a copy when the input is itself a writeable
# array, so building a value never makes the caller's array read-only; an
# input that is already read-only is shared.
def _frozen_f64(values, name: str, ndim: int) -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.float64)
    if arr is values and arr.flags.writeable:
        arr = arr.copy()
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


def _frozen_i64(values, name: str) -> np.ndarray:
    raw = np.asarray(values)
    if raw.dtype.kind == "f":
        bad = np.flatnonzero(~(np.isfinite(raw) & (raw == np.trunc(raw))))
        if bad.size:
            raise ValueError(f"{name} must be integral: entry(s) {bad[:5].tolist()} are not")
    arr = np.ascontiguousarray(raw, dtype=np.int64)
    if arr is values and arr.flags.writeable:
        arr = arr.copy()
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dataset:
    """Points to segment plus optional per-point side information.

    Attributes:
        points: (n_points, n_features) float64 matrix of finite values.
            Every feature is stored as a real number, categorical ones
            included.
        feature_names: one label per feature column.
        bookings: optional per-point non-negative booking counts, used by
            the simulated preference oracle.
        hidden_segment: optional generator ground-truth segment ids. Never
            clustered on; consumed by the oracle and by purity checks.
        origins/destinations: optional opaque per-point codes, carried
            through untouched and never clustered on.
    """

    points: np.ndarray
    feature_names: tuple[str, ...]
    bookings: np.ndarray | None = None
    hidden_segment: np.ndarray | None = None
    origins: tuple[str, ...] | None = None
    destinations: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        points = _frozen_f64(self.points, "points", ndim=2)
        if points.shape[0] == 0:
            raise ValueError("dataset is empty")
        bad_rows = np.flatnonzero(~np.isfinite(points).all(axis=1))
        if bad_rows.size:
            raise ValueError(f"points must be finite: row(s) {bad_rows[:5].tolist()} hold nan or inf")
        object.__setattr__(self, "points", points)
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != points.shape[1]:
            raise ValueError(
                f"feature_names has {len(names)} entries for {points.shape[1]} features"
            )
        object.__setattr__(self, "feature_names", names)
        n = points.shape[0]
        if self.bookings is not None:
            bookings = _frozen_i64(self.bookings, "bookings")
            if bookings.shape[0] != n:
                raise ValueError("bookings must have exactly one entry per point")
            if (bookings < 0).any():
                raise ValueError("bookings must be non-negative")
            object.__setattr__(self, "bookings", bookings)
        if self.hidden_segment is not None:
            segs = _frozen_i64(self.hidden_segment, "hidden_segment")
            if segs.shape[0] != n:
                raise ValueError("hidden_segment must have exactly one entry per point")
            object.__setattr__(self, "hidden_segment", segs)
        for attr in ("origins", "destinations"):
            value = getattr(self, attr)
            if value is not None:
                value = tuple(str(v) for v in value)
                if len(value) != n:
                    raise ValueError(f"{attr} must have exactly one entry per point")
                object.__setattr__(self, attr, value)

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def n_features(self) -> int:
        return self.points.shape[1]

    @functools.cached_property
    def row_ids(self) -> np.ndarray:
        """Per-point distinct-row id: the rank of the point's row among the
        sorted distinct rows, computed on first use and then cached.

        Two points share an id iff their rows are equal, and ids order like
        the rows they stand for, so the ids can stand in for the rows in
        sorting and deduplication. Threads racing on the first use compute
        equal arrays, so the cache needs no lock.
        """
        _, inverse = np.unique(self.points, axis=0, return_inverse=True)
        # numpy 2.0.x returns the axis=0 inverse as a column, not a vector.
        ids = inverse.reshape(-1)
        ids.setflags(write=False)
        return ids

    def subset(self, members: np.ndarray) -> "Dataset":
        """The points at the given indices, without side data.

        The subset keeps this dataset's row ids, so it never sorts its rows
        again; they still compare and order like its rows, but need not be
        dense.
        """
        sub = Dataset(points=self.points[members], feature_names=self.feature_names)
        ids = self.row_ids[members]
        ids.setflags(write=False)
        # cached_property reads the instance dict first.
        sub.__dict__["row_ids"] = ids
        return sub


@dataclass(frozen=True, eq=False)
class Clustering:
    """An assignment of every point to one of k dense cluster ids.

    Construction only coerces dtypes; structural invariants (surjectivity,
    dense ids, matching centroid count) are reported by
    :func:`validate_clustering` so that malformed values can be inspected.
    """

    assignment: np.ndarray  # (n_points,) int64, values in {0..k-1}
    centroids: np.ndarray  # (k, n_features) float64
    k: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", _frozen_i64(self.assignment, "assignment"))
        centroids = _frozen_f64(np.atleast_2d(self.centroids), "centroids", ndim=2)
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "k", int(self.k))

    def sizes(self) -> np.ndarray:
        """Cluster sizes indexed by cluster id (0 for empty ids)."""
        return np.bincount(self.assignment, minlength=self.k)

    def members(self, cluster_id: int) -> np.ndarray:
        """Point indices assigned to cluster_id, ascending."""
        return np.flatnonzero(self.assignment == cluster_id)


@dataclass(frozen=True)
class FeedbackReport:
    """Per-cluster feedback values plus their size-weighted aggregate."""

    per_cluster: tuple[float, ...]
    aggregate: float
    sense: Sense

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_cluster", tuple(float(v) for v in self.per_cluster))
        object.__setattr__(self, "aggregate", float(self.aggregate))
        if len(self.per_cluster) == 0:
            raise ValueError("feedback report must cover at least one cluster")


@dataclass(frozen=True)
class Action:
    """One elementary trace action.

    kind is "init", "split" or "merge"; split carries the target cluster
    id, merge the (pre-merge) pair of cluster ids.
    """

    kind: str
    target: int | None = None
    pair: tuple[int, int] | None = None

    @classmethod
    def init(cls) -> "Action":
        return cls(kind="init")

    @classmethod
    def split(cls, target: int) -> "Action":
        return cls(kind="split", target=int(target))

    @classmethod
    def merge(cls, first: int, second: int) -> "Action":
        lo, hi = sorted((int(first), int(second)))
        return cls(kind="merge", pair=(lo, hi))

    def label(self) -> str:
        if self.kind == "init":
            return "init"
        if self.kind == "split":
            return f"split({self.target})"
        return f"merge({self.pair[0]},{self.pair[1]})"


@dataclass(frozen=True)
class TraceStep:
    """One recorded step: the actions applied, the resulting clustering and
    its evaluation.

    The initial step carries the single "init" action; an iteration of the
    paired split+merge loop carries both its actions because it is evaluated
    only once, after the pair.
    """

    index: int
    actions: tuple[Action, ...]
    clustering: Clustering
    feedback: FeedbackReport
    is_best: bool

    @property
    def k(self) -> int:
        return len(self.feedback.per_cluster)


@dataclass(frozen=True)
class RunTrace:
    """Ordered record of an engine run.

    best_evaluation is the optimum (per sense) over all recorded aggregate
    evaluations, reached first at best_step_index. stalled marks runs that
    terminated early because no legal action remained.
    """

    steps: tuple[TraceStep, ...]
    best_step_index: int
    best_evaluation: float
    seed: int
    stalled: bool = False

    def __post_init__(self) -> None:
        if not self.steps:
            raise ValueError("trace must contain at least the initial step")
        if self.steps[0].actions[0].kind != "init":
            raise ValueError("step 0 must be the initial clustering")

    @property
    def sense(self) -> Sense:
        return self.steps[0].feedback.sense

    def evaluations(self) -> list[float]:
        return [s.feedback.aggregate for s in self.steps]

    def action_count(self) -> int:
        """Number of elementary split/merge actions recorded."""
        return sum(1 for s in self.steps for a in s.actions if a.kind != "init")


def validate_clustering(dataset: Dataset, clustering: Clustering) -> list[str]:
    """Check a clustering against a dataset; violations are data, not errors.

    Returns an empty list iff the assignment covers every point, every id in
    {0..k-1} is used (dense, surjective), and centroids match k and the
    feature dimension.
    """
    violations: list[str] = []
    n = dataset.n_points
    assignment = clustering.assignment
    if clustering.k < 1:
        violations.append(f"k must be positive, got {clustering.k}")
        return violations
    if assignment.shape[0] != n:
        violations.append(
            f"assignment length mismatch: {assignment.shape[0]} entries for {n} points"
        )
        return violations
    if clustering.centroids.shape[0] != clustering.k:
        violations.append(
            f"centroid count mismatch: {clustering.centroids.shape[0]} centroids for k={clustering.k}"
        )
    if clustering.centroids.shape[1] != dataset.n_features:
        violations.append(
            f"centroid dimension mismatch: {clustering.centroids.shape[1]} != {dataset.n_features}"
        )
    if assignment.size and (assignment.min() < 0 or assignment.max() >= clustering.k):
        violations.append("assignment value out of range")
        return violations
    sizes = np.bincount(assignment, minlength=clustering.k)
    for cid in np.flatnonzero(sizes == 0):
        violations.append(f"cluster {cid} empty")
    return violations
