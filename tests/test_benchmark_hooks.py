"""The benchmark's tracer and run log hook package names by string; a rename
or deletion here breaks them without failing any other test."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from feedback_kmeans import Clustering, CustomizabilityFeedback, OracleProfile, engines, feedback, harness
from helpers import make_dataset

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    tracer = _load_tracer()
    for module_name, func_name, _, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"
    for module_name, class_name, method, _ in tracer.METHODS:
        cls = getattr(importlib.import_module(f"{tracer.PACKAGE}.{module_name}"), class_name)
        assert method in cls.__dict__, f"{module_name}.{class_name}.{method}"
    # RunLog observes every engine run by rebinding harness.run_engine.
    assert harness.run_engine is engines.run_engine


def test_custom_evaluate_looks_up_the_oracle_at_call_time(monkeypatch):
    # The tracer counts feedback.customizability_cluster by rebinding the
    # module global; an evaluate that bound the function early would read 0.
    calls = []
    original = feedback.customizability_cluster

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(feedback, "customizability_cluster", counted)
    ds = make_dataset(
        [[0.0], [0.1], [5.0], [5.1], [9.0], [9.1]],
        bookings=np.arange(6, 0, -1),
        hidden_segment=np.zeros(6, dtype=np.int64),
    )
    clustering = Clustering(assignment=[0, 0, 1, 1, 2, 2], centroids=[[0.05], [5.05], [9.05]], k=3)
    profile = OracleProfile(segment_weights={0: np.array([1.0, 0.0])})
    CustomizabilityFeedback(profile).evaluate(ds, clustering)
    assert len(calls) == 3
