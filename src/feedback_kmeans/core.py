"""Shared domain types: datasets, clusterings, feedback reports, run traces.

All types are immutable values after construction; operators and engines
produce new values instead of mutating. Numpy arrays held by these types
are marked read-only.
"""

from __future__ import annotations

import contextlib
import enum
import functools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np


class Sense(enum.Enum):
    """Orientation of a feedback value. ``oriented`` is the one rule: every
    comparison below compares oriented values, higher being better."""

    HIGHER_IS_BETTER = "higher"
    LOWER_IS_BETTER = "lower"

    def oriented(self, value: float) -> float:
        """value, negated under LOWER_IS_BETTER, so that higher is better."""
        return -value if self is Sense.LOWER_IS_BETTER else value

    def better(self, candidate: float, incumbent: float) -> bool:
        """True iff candidate is strictly better than incumbent."""
        return self.oriented(candidate) > self.oriented(incumbent)

    def reached(self, value: float, target: float) -> bool:
        """True iff value is at least as good as target."""
        return self.oriented(value) >= self.oriented(target)

    def worst_first(self, values) -> list[int]:
        """Indices of values ordered worst to best, ties by lowest index."""
        return sorted(range(len(values)), key=lambda i: (self.oriented(values[i]), i))

    def best_flags(self, values) -> list[bool]:
        """True for the first value and for each value strictly better than
        every value before it: the steps at which a run's best changes."""
        flags, best = [], None
        for value in values:
            flags.append(best is None or self.better(value, best))
            if flags[-1]:
                best = value
        return flags


def as_integer(name: str, value) -> int:
    """value as an int; a bool, a fraction or a non-number is rejected by name."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def as_seed(name: str, value) -> int:
    """value as a seed: an integer in [0, 2**64), rejected by name otherwise,
    so that no two seeds name one random stream."""
    seed = as_integer(name, value)
    if seed < 0:
        raise ValueError(f"{name} must be non-negative, got {seed}")
    if seed >= 2**64:
        raise ValueError(f"{name} must be below 2**64, got {seed}")
    return seed


def as_number(name: str, value) -> float:
    """value as a float; a bool, a string, nan, an infinity or an integer
    beyond the float range is rejected by name."""
    if isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):
            if math.isfinite(value):
                return float(value)
    raise ValueError(f"{name} must be a finite int or float, got {value!r}")


@contextlib.contextmanager
def named_errors(what: str | Path, *errors: type[Exception]):
    """Re-raise any of errors from inside the block as ValueError("<what>: <error>")."""
    try:
        yield
    except errors as exc:
        raise ValueError(f"{what}: {exc}") from None


@contextlib.contextmanager
def keyed_errors(keys: dict[str, str], written):
    """Re-raise a ValueError about the field of a written key under the key:
    keys maps each input key to the field it sets, and a message starting
    with such a field name starts with the key instead."""
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        for key in written:
            if message.startswith(keys[key] + " "):
                raise ValueError(key + message[len(keys[key]):]) from None
        raise


def read_json(path: str | Path, what: str):
    """Parse a UTF-8 JSON file; one that is not is a ValueError naming what."""
    with named_errors(what, json.JSONDecodeError, UnicodeDecodeError):
        return json.loads(Path(path).read_text(encoding="utf-8"))


def check_keys(what: str, where: str, block, accepted) -> None:
    """Reject a config block that is not a JSON object or holds a key
    outside accepted, naming the file (what) and the block (where)."""
    if not isinstance(block, dict):
        raise ValueError(f"{what}: {where} must be a JSON object")
    unknown = sorted(set(block) - set(accepted))
    if unknown:
        raise ValueError(
            f"{what}: unknown {where} key(s) {', '.join(unknown)} (accepted: {', '.join(accepted)})"
        )


# The two helpers below freeze a copy when the input is itself a writeable
# array, so building a value never makes the caller's array read-only; an
# input that is already read-only is shared, as the package's own producers
# (Clustering.adopt, synth.generate) hand over the arrays they build.
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
                # A list comprehension: Python 3.11 specializes its str(v)
                # call, where map(str, ...) and a generator are slower.
                value = tuple([str(v) for v in value])
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

    @functools.cached_property
    def columns(self) -> np.ndarray:
        """The points feature-major: a C-contiguous read-only (d, n) copy of
        points.T, the distance kernels' input, computed on first use and
        then cached like row_ids. It costs n*d*8 bytes, held for the
        dataset's life."""
        columns = np.ascontiguousarray(self.points.T)
        columns.setflags(write=False)
        return columns

    @functools.cached_property
    def booking_rank(self) -> np.ndarray:
        """Point indices by descending bookings, ties by lowest index,
        computed on first use and then cached like row_ids."""
        if self.bookings is None:
            raise ValueError("dataset has no bookings to rank")
        rank = np.argsort(-self.bookings, kind="stable")
        rank.setflags(write=False)
        return rank


@dataclass(frozen=True, eq=False)
class Clustering:
    """An assignment of every point to one of k dense cluster ids, one per centroid.

    Construction only coerces dtypes; structural invariants (surjectivity,
    dense ids, matching feature dimension) are reported by
    :func:`validate_clustering` so that malformed values can be inspected.
    """

    assignment: np.ndarray  # (n_points,) int64, values in {0..k-1}
    centroids: np.ndarray  # (k, n_features) float64

    def __post_init__(self) -> None:
        object.__setattr__(self, "assignment", _frozen_i64(self.assignment, "assignment"))
        centroids = _frozen_f64(np.atleast_2d(self.centroids), "centroids", ndim=2)
        object.__setattr__(self, "centroids", centroids)

    @classmethod
    def adopt(cls, assignment: np.ndarray, centroids: np.ndarray) -> "Clustering":
        """A clustering built from arrays that nobody else holds: they are
        marked read-only, so construction shares them instead of copying."""
        assignment.setflags(write=False)
        centroids.setflags(write=False)
        return cls(assignment=assignment, centroids=centroids)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    def sizes(self) -> np.ndarray:
        """Cluster sizes indexed by cluster id (0 for empty ids)."""
        return np.bincount(self.assignment, minlength=self.k)

    def members(self, cluster_id: int) -> np.ndarray:
        """Point indices assigned to cluster_id, ascending."""
        return (self.assignment == cluster_id).nonzero()[0]


@dataclass(frozen=True)
class FeedbackReport:
    """Per-cluster feedback values plus their size-weighted aggregate, all finite."""

    per_cluster: tuple[float, ...]
    aggregate: float
    sense: Sense

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_cluster", tuple(float(v) for v in self.per_cluster))
        object.__setattr__(self, "aggregate", float(self.aggregate))
        if len(self.per_cluster) == 0:
            raise ValueError("feedback report must cover at least one cluster")
        for cid, value in enumerate((*self.per_cluster, self.aggregate)):
            if not math.isfinite(value):
                what = f"feedback of cluster {cid}" if cid < len(self.per_cluster) else "aggregate feedback"
                raise ValueError(f"{what} is not finite: {value!r}")


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
    only once, after the pair. A step's number is its position in the
    trace; whether it is a new best is RunTrace.best_flags.
    """

    actions: tuple[Action, ...]
    clustering: Clustering
    feedback: FeedbackReport

    @property
    def k(self) -> int:
        return len(self.feedback.per_cluster)


@dataclass(frozen=True)
class RunTrace:
    """Ordered record of an engine run.

    best_flags, best_step_index and best_evaluation derive from the steps'
    evaluations: the best step is the first optimum per sense. stalled marks
    runs that terminated early because no legal action remained.
    """

    steps: tuple[TraceStep, ...]
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

    @functools.cached_property
    def best_flags(self) -> tuple[bool, ...]:
        """Per step, Sense.best_flags of the aggregate evaluations."""
        return tuple(self.sense.best_flags(self.evaluations()))

    @property
    def best_step_index(self) -> int:
        return max(i for i, is_best in enumerate(self.best_flags) if is_best)

    @property
    def best_evaluation(self) -> float:
        return self.steps[self.best_step_index].feedback.aggregate


def validate_clustering(dataset: Dataset, clustering: Clustering) -> list[str]:
    """Check a clustering against a dataset; violations are data, not errors.

    Returns an empty list iff the assignment covers every point, every id in
    {0..k-1} is used (dense, surjective), and centroids match the feature
    dimension.
    """
    violations: list[str] = []
    n = dataset.n_points
    assignment = clustering.assignment
    if assignment.shape[0] != n:
        violations.append(
            f"assignment length mismatch: {assignment.shape[0]} entries for {n} points"
        )
        return violations
    if clustering.centroids.shape[1] != dataset.n_features:
        violations.append(
            f"centroid dimension mismatch: {clustering.centroids.shape[1]} != {dataset.n_features}"
        )
    if assignment.size and (assignment.min() < 0 or assignment.max() >= clustering.k):
        violations.append("assignment value out of range")
        return violations
    sizes = np.bincount(assignment, minlength=clustering.k)
    for cid in (sizes == 0).nonzero()[0]:
        violations.append(f"cluster {cid} empty")
    return violations
