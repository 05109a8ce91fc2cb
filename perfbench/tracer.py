"""Outside-in span tracer for the feedback_kmeans package.

The package has no instrumentation of its own, so the traced run replaces
the package's public functions with timing wrappers: each wrapped function
is rebound in every package module that holds a reference to it (so calls
through ``from .kmeans import assign_points`` in ``operators`` are seen
too), and three methods are patched on their classes. Every call made while
the tracer is active records one span ``(name, start, end, parent,
raised)``; spans stay in memory and are written out once at the end.
Span times run on a clock that stops inside :meth:`Tracer.paused`, so the
benchmark's own output checks, made while a package call is still open,
are not counted in that call's time.

Probes attached to some functions add exact counts derived from argument
shapes and return values (pair evaluations, Lloyd iterations, CSV bytes),
which never depend on timing.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "feedback_kmeans"

def _assign_probe(counts, args, kwargs, result):
    dataset, centroids = args[0], args[1]
    n, d = dataset.points.shape
    k = len(centroids)
    counts["kmeans.assign_points.pair_evals"] += n * k
    # The (n, k, d) float64 difference tensor that squared_distances builds.
    counts["kmeans.assign_points.bytes_computed"] += n * k * d * 8


def _lloyd_history_probe(counts, args, kwargs, result):
    config = args[1]
    iterations = len(result[1]) - 1
    counts["kmeans.lloyd.iterations"] += iterations
    if iterations >= config.max_iterations:
        counts["kmeans.lloyd.cap_hits"] += 1


def _write_csv_probe(counts, args, kwargs, result):
    counts["ingest.csv_bytes"] += os.path.getsize(args[1])


# (defining module, function, span name, probe). Span names follow the
# per-layer metric names: <module>.<function>. lloyd_history, worst_cluster
# and sm_decide have no time metric of their own: lloyd_history carries the
# iteration probe, and the other two are traced so that run_engine.self_s
# excludes them.
FUNCTIONS = (
    ("kmeans", "lloyd", "kmeans.lloyd", None),
    ("kmeans", "lloyd_history", "kmeans.lloyd_history", _lloyd_history_probe),
    ("kmeans", "init_centroids", "kmeans.init_centroids", None),
    ("kmeans", "assign_points", "kmeans.assign_points", _assign_probe),
    ("kmeans", "update_centroids", "kmeans.update_centroids", None),
    ("kmeans", "repair_empty", "kmeans.repair_empty", None),
    ("operators", "split_cluster", "operators.split_cluster", None),
    ("operators", "bisect_cluster", "operators.bisect_cluster", None),
    ("operators", "merge_pair", "operators.merge_pair", None),
    ("operators", "closest_centroid_pair", "operators.closest_centroid_pair", None),
    ("operators", "nearest_cluster", "operators.nearest_cluster", None),
    ("operators", "is_splittable", "operators.is_splittable", None),
    ("operators", "worst_cluster", "operators.worst_cluster", None),
    ("operators", "sm_decide", "operators.sm_decide", None),
    ("core", "validate_clustering", "core.validate_clustering", None),
    ("feedback", "customizability_cluster", "feedback.customizability_cluster", None),
    ("engines", "run_engine", "engines.run_engine", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "expected_relative_change", "harness.expected_relative_change", None),
    ("synth", "generate", "synth.generate", None),
    ("synth", "standardize", "synth.standardize", None),
    ("ingest", "write_csv", "ingest.write_csv", _write_csv_probe),
    ("ingest", "read_csv", "ingest.read_csv", None),
    ("ingest", "write_report", "ingest.write_report", None),
    ("rng", "substream", "rng.substream", None),
    ("rng", "derive_seed", "rng.derive_seed", None),
)

# (defining module, class, method, span name), patched on the class.
METHODS = (
    ("core", "Clustering", "members", "core.Clustering.members"),
    ("feedback", "RssFeedback", "evaluate", "feedback.rss.evaluate"),
    ("feedback", "CustomizabilityFeedback", "evaluate", "feedback.custom.evaluate"),
)


class Tracer:
    """Span recorder over the package; inactive wrappers call straight through."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, bool] | None] = []
        self.counts: Counter = Counter()
        self.active = False
        self._paused_s = 0.0  # total time spent in paused blocks
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, probe):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter() - self._paused_s
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter() - self._paused_s, parent, True)
                stack.pop()
                raise
            spans[index] = (name, start, perf_counter() - self._paused_s, parent, False)
            stack.pop()
            if probe is not None:
                probe(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Rebind every listed function in every package module binding it."""
        prefix = PACKAGE + "."
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(prefix))
        ]
        for module_name, func_name, span_name, probe in FUNCTIONS:
            original = getattr(sys.modules[prefix + module_name], func_name)
            wrapper = self._wrap(span_name, original, probe)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._undo.append((module, attr, original))
        for module_name, class_name, method, span_name in METHODS:
            cls = getattr(sys.modules[prefix + module_name], class_name)
            original = cls.__dict__[method]
            setattr(cls, method, self._wrap(span_name, original, None))
            self._undo.append((cls, method, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block and stop the span clock, so spans
        open around it exclude its time (used around output checks)."""
        active, self.active = self.active, False
        start = perf_counter()
        try:
            yield
        finally:
            self._paused_s += perf_counter() - start
            self.active = active

    def write(self, path) -> None:
        """Spans as JSON lines: name, start and end (s on the span clock,
        run-relative), parent index, raised."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, raised in self.spans:
                handle.write(json.dumps([name, start - origin, end - origin, parent, raised]) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics derived from the recorded spans and probe counts."""
    spans = tracer.spans
    n = len(spans)
    duration = [end - start for _, start, end, _, _ in spans]
    child_time = [0.0] * n
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += duration[i]
    calls: Counter = Counter()
    seconds: Counter = Counter()
    errors: Counter = Counter()
    for i, (name, _, _, _, raised) in enumerate(spans):
        calls[name] += 1
        seconds[name] += duration[i]
        errors[name] += raised

    def has_ancestor(i: int, names: tuple[str, ...]) -> bool:
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] in names:
                return True
            parent = spans[parent][3]
        return False

    reassign_s = sum(
        duration[i] for i, s in enumerate(spans)
        if s[0] == "kmeans.assign_points" and s[3] >= 0 and spans[s[3]][0] == "operators.split_cluster"
    )
    engine_self_s = sum(
        duration[i] - child_time[i] for i, s in enumerate(spans) if s[0] == "engines.run_engine"
    )
    reference_eval_s = sum(
        duration[i] for i, s in enumerate(spans)
        if s[0] == "feedback.custom.evaluate"
        and not has_ancestor(i, ("engines.run_engine", "harness.expected_relative_change"))
    )
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {
        "kmeans.lloyd.calls": (calls["kmeans.lloyd"], "count"),
        "kmeans.lloyd.s": (seconds["kmeans.lloyd"], "s"),
        "kmeans.lloyd.iterations": (c["kmeans.lloyd.iterations"], "count"),
        "kmeans.lloyd.cap_hits": (c["kmeans.lloyd.cap_hits"], "count"),
        "kmeans.init_centroids.s": (seconds["kmeans.init_centroids"], "s"),
        "kmeans.assign_points.calls": (calls["kmeans.assign_points"], "count"),
        "kmeans.assign_points.s": (seconds["kmeans.assign_points"], "s"),
        "kmeans.assign_points.pair_evals": (c["kmeans.assign_points.pair_evals"], "count"),
        "kmeans.assign_points.bytes_computed": (c["kmeans.assign_points.bytes_computed"], "B"),
        "kmeans.update_centroids.s": (seconds["kmeans.update_centroids"], "s"),
        "kmeans.repair_empty.calls": (calls["kmeans.repair_empty"], "count"),
        "operators.split_cluster.calls": (calls["operators.split_cluster"], "count"),
        "operators.split_cluster.s": (seconds["operators.split_cluster"], "s"),
        "operators.split_cluster.reassign_s": (reassign_s, "s"),
        "operators.bisect_cluster.s": (seconds["operators.bisect_cluster"], "s"),
        "operators.merge_pair.s": (seconds["operators.merge_pair"], "s"),
        "operators.closest_centroid_pair.s": (seconds["operators.closest_centroid_pair"], "s"),
        "operators.nearest_cluster.s": (seconds["operators.nearest_cluster"], "s"),
        "operators.is_splittable.calls": (calls["operators.is_splittable"], "count"),
        "operators.is_splittable.s": (seconds["operators.is_splittable"], "s"),
        "feedback.rss.evaluate.calls": (calls["feedback.rss.evaluate"], "count"),
        "feedback.rss.evaluate.s": (seconds["feedback.rss.evaluate"], "s"),
        "feedback.custom.evaluate.calls": (calls["feedback.custom.evaluate"], "count"),
        "feedback.custom.evaluate.s": (seconds["feedback.custom.evaluate"], "s"),
        "feedback.customizability_cluster.calls": (calls["feedback.customizability_cluster"], "count"),
        "feedback.customizability_cluster.s": (seconds["feedback.customizability_cluster"], "s"),
        "feedback.customizability_cluster.errors": (errors["feedback.customizability_cluster"], "count"),
        "core.Clustering.members.calls": (calls["core.Clustering.members"], "count"),
        "core.validate_clustering.s": (seconds["core.validate_clustering"], "s"),
        "engines.run_engine.calls": (calls["engines.run_engine"], "count"),
        "engines.run_engine.s": (seconds["engines.run_engine"], "s"),
        "engines.run_engine.self_s": (engine_self_s, "s"),
        "harness.run_experiment.s": (seconds["harness.run_experiment"], "s"),
        "harness.expected_relative_change.calls": (calls["harness.expected_relative_change"], "count"),
        "harness.expected_relative_change.s": (seconds["harness.expected_relative_change"], "s"),
        "harness.reference_eval.s": (reference_eval_s, "s"),
        "synth.generate.s": (seconds["synth.generate"], "s"),
        "synth.standardize.s": (seconds["synth.standardize"], "s"),
        "ingest.write_csv.s": (seconds["ingest.write_csv"], "s"),
        "ingest.read_csv.s": (seconds["ingest.read_csv"], "s"),
        "ingest.csv_bytes": (c["ingest.csv_bytes"], "B"),
        "ingest.write_report.s": (seconds["ingest.write_report"], "s"),
        "rng.calls": (calls["rng.substream"] + calls["rng.derive_seed"], "count"),
        "rng.s": (seconds["rng.substream"] + seconds["rng.derive_seed"], "s"),
    }
    return out
