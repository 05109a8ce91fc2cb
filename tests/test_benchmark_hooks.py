"""The benchmark's tracer and run log hook package names by string; a rename
or deletion here breaks them without failing any other test."""

import importlib
import importlib.util
from pathlib import Path

from feedback_kmeans import engines, harness

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
