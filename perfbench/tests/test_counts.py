"""Self-test of the traced run: exact counts repeat, spans nest, tracing
changes no output.

Run from the repository root: python3 -m pytest perfbench/tests -q
"""

import contextlib
import dataclasses

import pytest

from measure import traced
from speed import SpeedProbe
from tracer import Tracer
from workloads import WORKLOADS, run_pass, setup

# Two small datasets keep the test to a few seconds while still running
# every layer: both engines, both providers, fluctuation and report I/O.
TINY = dataclasses.replace(WORKLOADS["small_grid"], n_datasets=2)
SEED = 7


def _exact(metrics: dict) -> dict:
    return {
        name: value for name, (value, unit, _) in metrics.items()
        if unit != "s" and name != "trace_overhead_frac"
    }


def test_counts_repeat_exactly(tmp_path):
    first = traced(TINY, SEED, tmp_path, tmp_path / "spans-1.jsonl")["metrics"]
    second = traced(TINY, SEED, tmp_path, tmp_path / "spans-2.jsonl")["metrics"]
    counts = _exact(first)
    assert counts == _exact(second)
    assert counts["kmeans.assign_points.pair_evals"] > 0
    assert counts["core.Clustering.members.calls"] > 0
    assert counts["engines.run_engine.calls"] == 2 * 24


def test_spans_nest_and_tracing_changes_no_output(tmp_path):
    inputs = setup(TINY, SEED, tmp_path)
    plain = run_pass(TINY, inputs, tmp_path, contextlib.nullcontext, SpeedProbe())
    tracer = Tracer()
    tracer.install()
    tracer.active = True
    try:
        result = run_pass(TINY, inputs, tmp_path, tracer.paused, SpeedProbe())
    finally:
        tracer.active = False
        tracer.uninstall()
    assert result.digest == plain.digest
    assert tracer.spans
    for index, (name, start, end, parent, _) in enumerate(tracer.spans):
        assert start <= end
        if parent >= 0:
            assert parent < index
            _, p_start, p_end, _, _ = tracer.spans[parent]
            assert p_start <= start and end <= p_end, name


def test_layer_time_excludes_output_checks(tmp_path):
    # The output checks run inside harness.run_experiment, paused; the pass
    # clock excludes them, and so must the span clock.
    outcome = traced(TINY, SEED, tmp_path, tmp_path / "spans.jsonl")
    run_experiment_s = outcome["metrics"]["harness.run_experiment.s"][0]
    assert 0 < run_experiment_s <= outcome["measured"]["traced_wall_s"]


@pytest.mark.parametrize("name", ["assign_points", "lloyd"])
def test_uninstall_restores_every_binding(name):
    import feedback_kmeans
    from feedback_kmeans import engines, harness, kmeans, operators

    holders = [m for m in (feedback_kmeans, engines, harness, kmeans, operators) if hasattr(m, name)]
    before = [getattr(m, name) for m in holders]
    tracer = Tracer()
    tracer.install()
    assert all(getattr(m, name) is not b for m, b in zip(holders, before))
    tracer.uninstall()
    assert [getattr(m, name) for m in holders] == before
